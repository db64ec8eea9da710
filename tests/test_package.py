import os
import subprocess
import sys
from pathlib import Path

import iabsim


def test_every_exported_name_resolves():
    missing = [name for name in iabsim.__all__ if not hasattr(iabsim, name)]
    assert missing == []
    assert len(set(iabsim.__all__)) == len(iabsim.__all__)


def test_import_leaves_numpy_random_unloaded():
    """Importing ``streams``, and with it numpy.random, costs about 17 ms of CPU, and the process
    pool with ``multiprocessing`` about 20 ms; only a campaign loads them, when it first draws or
    before it forks a pool, so importing the package and parsing a config (the benchmark's
    ``setup_s``) must load none of them. numpy 2 loads its submodules lazily; numpy 1.x loads
    numpy.random on ``import numpy`` already."""
    modules = ("iabsim.streams", "concurrent.futures.process", "multiprocessing")
    code = (
        "import sys, numpy; by_numpy = 'numpy.random' in sys.modules; import iabsim; "
        "iabsim.parse_config({'run': {'repetitions': 4}}); "
        f"print(by_numpy, 'numpy.random' in sys.modules, *(m in sys.modules for m in {modules}))"
    )
    src = str(Path(iabsim.__file__).resolve().parents[1])  # the directory this test imported the package from
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60, env={**os.environ, "PYTHONPATH": src}
    )
    by_numpy, after, *loaded = out.stdout.split()
    assert after == by_numpy and dict(zip(modules, loaded)) == dict.fromkeys(modules, "False")
