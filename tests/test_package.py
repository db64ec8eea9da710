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
    """Importing ``streams``, and with it numpy.random, costs about 17 ms of CPU; only a campaign
    loads it, when it first draws or before it forks a pool, so importing the package and parsing
    a config (the benchmark's ``setup_s``) must load neither. numpy 2 loads its submodules lazily;
    numpy 1.x loads numpy.random on ``import numpy`` already."""
    code = (
        "import sys, numpy; by_numpy = 'numpy.random' in sys.modules; import iabsim; "
        "iabsim.parse_config({'run': {'repetitions': 4}}); "
        "print(by_numpy, 'numpy.random' in sys.modules, 'iabsim.streams' in sys.modules)"
    )
    src = str(Path(iabsim.__file__).resolve().parents[1])  # the directory this test imported the package from
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=60, env={**os.environ, "PYTHONPATH": src}
    )
    by_numpy, after, streams = out.stdout.split()
    assert (after, streams) == (by_numpy, "False")
