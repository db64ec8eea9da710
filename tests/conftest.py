import pytest

from iabsim import simulate


@pytest.fixture(autouse=True)
def every_worker_starts(monkeypatch):
    """``run_campaign`` starts no more processes than the host has CPUs; here the cap is lifted, so a
    test that names 2 or 3 workers splits its campaign into that many ranges and runs the pool on any
    host. Tests of the cap pin ``simulate._usable_cpus`` themselves."""
    monkeypatch.setattr(simulate, "_usable_cpus", lambda: 64)
