"""spectral binds its four LAPACK routines from scipy's compiled module without importing
scipy.linalg: they must be the very objects scipy.linalg.get_lapack_funcs returns, whichever of
the two is imported first, and loading the lab and its configs must not import scipy.linalg.
Each check runs in a fresh interpreter, since this one has imported scipy.linalg already."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_python(code: str, *args: str) -> str:
    """The stdout of a fresh interpreter that runs code with this checkout's lab."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


IDENTITY = """
import sys
import numpy as np
if sys.argv[1] == "lab":
    from dispersal_lab import spectral
    import scipy.linalg
else:
    import scipy.linalg
    from dispersal_lab import spectral
theirs = scipy.linalg.get_lapack_funcs(("gtsv", "gbsv", "pttrf", "pttrs"), (np.empty(0),))
ours = (spectral._GTSV, spectral._GBSV, spectral._PTTRF, spectral._PTTRS)
print([a is b for a, b in zip(ours, theirs)])
"""


@pytest.mark.parametrize("first", ["lab", "scipy.linalg"])
def test_lapack_routines_are_the_objects_scipy_linalg_returns_in_either_import_order(first):
    assert run_python(IDENTITY, first) == "[True, True, True, True]"


LOAD_CONFIGS = """
import sys
from pathlib import Path
from dispersal_lab import cli
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    cli.load_config(path)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_loading_the_lab_and_every_shipped_config_does_not_import_scipy_linalg():
    loaded = run_python(LOAD_CONFIGS, str(ROOT / "configs"))
    assert "'scipy.linalg'" not in loaded, loaded


def test_spectral_is_the_only_module_that_names_scipy():
    naming = [path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
              if "scipy" in path.read_text(encoding="utf-8")]
    assert naming == ["dispersal_lab/spectral.py"]


MISSING_MODULE = """
import importlib.machinery
importlib.machinery.EXTENSION_SUFFIXES.insert(0, ".missing.so")
try:
    import dispersal_lab
except ImportError as exc:
    print(exc.path, "|", exc)
"""


def test_a_missing_lapack_module_fails_at_import_naming_its_path():
    path, message = run_python(MISSING_MODULE).split(" | ")
    assert Path(path).parts[-3:] == ("scipy", "linalg", "_flapack.missing.so")
    assert path in message
