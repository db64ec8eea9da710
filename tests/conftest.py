import pytest

from iabsim import simulate


@pytest.fixture(autouse=True)
def every_worker_starts(monkeypatch):
    """``run_campaign`` starts no more processes than the host has CPUs, nor more than the campaign's
    estimated work pays for; here both caps are lifted, so a test that names 2 or 3 workers splits its
    small campaign into that many ranges and runs the pool on any host. Tests of the caps pin
    ``simulate._usable_cpus`` and ``simulate._work_cap`` themselves."""
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
    monkeypatch.setattr(simulate, "_work_cap", lambda cfg: 64)
