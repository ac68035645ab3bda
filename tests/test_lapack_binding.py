"""spectral binds gtsv, gbsv, pttrf and pttrs through ctypes from numpy's bundled OpenBLAS.
The binding must give the bits scipy's LAPACK wrappers give, reject before any LAPACK call
what those wrappers would have converted or refused, fail at import when the library is
missing, and leave scipy out of the lab's run time: the subprocess checks run in a fresh
interpreter, since this one imports scipy as the tests' oracle."""

import ctypes
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersal_lab import spectral
from dispersal_lab.mesh import build_grid

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
GTSV, GBSV, PTTRF, PTTRS = scipy.linalg.get_lapack_funcs(("gtsv", "gbsv", "pttrf", "pttrs"),
                                                         (np.empty(0),))


def run_python(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with this checkout's lab and one BLAS thread."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)


def python_stdout(code: str, *args: str) -> str:
    proc = run_python("-c", code, *args)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def random_band(rng, u: int, n: int, kind: str) -> np.ndarray:
    """(2u + 1, n) band storage of a random matrix: diagonally dominant, with a main
    diagonal too small to pivot on, or with an exactly zero column (singular)."""
    ab = rng.uniform(-1.0, 1.0, (2 * u + 1, n))
    for k in range(1, u + 1):  # the corners outside the matrix
        ab[u - k, :k] = 0.0
        ab[u + k, n - k:] = 0.0
    if kind == "dominant":
        ab[u] = np.sign(ab[u]) * (np.abs(ab).sum(axis=0) + rng.uniform(0.1, 1.0, n))
    elif kind == "pivoting":
        ab[u] *= 1e-3
    else:
        column = rng.integers(n)
        for r in range(2 * u + 1):
            ab[r, column] = 0.0
    return ab


def positive_definite(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of a random symmetric diagonally dominant tridiagonal
    matrix with a positive diagonal."""
    off = rng.uniform(-1.0, 1.0, n - 1) * 10.0 ** rng.uniform(-3.0, 3.0)
    size = np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
    return size + rng.uniform(1e-3, 2.0, n), off


@settings(max_examples=60, deadline=None)
@given(u=st.integers(1, 3), n=st.integers(2, 2000), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["dominant", "pivoting", "singular"]))
def test_gtsv_and_gbsv_give_the_bits_and_info_of_scipy_lapack(u, n, seed, kind):
    rng = np.random.default_rng(seed)
    ab = random_band(rng, u, n, kind)
    rhs = rng.uniform(-1.0, 1.0, n)
    work = np.zeros((3 * u + 1, n), order="F")
    work[u:] = ab
    x = rhs.copy()
    if u == 1:
        *_, expected, expected_info = GTSV(ab[2, :-1], ab[1], ab[0, 1:], rhs)
        info = spectral._gtsv(ab.copy(), x)
    else:
        *_, expected, expected_info = GBSV(u, u, work, rhs)
        info = spectral._gbsv(work, u, x)
    assert info == expected_info
    assert (info > 0) == (kind == "singular")
    if info == 0:
        assert x.tobytes() == expected.tobytes()
        assert spectral.solve_band(ab.copy(), rhs).tobytes() == expected.tobytes()
    else:
        for solve in (spectral.solve_band, lambda a, b: scipy.linalg.solve_banded((u, u), a, b)):
            with pytest.raises(np.linalg.LinAlgError):
                solve(ab.copy(), rhs)


def pttrs(d, e, x):
    info = ctypes.c_int64(-99)
    spectral._bind_pttrs(d, e, x, info)()
    return info.value


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(2, 2000), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_pttrf_and_pttrs_give_the_bits_and_info_of_scipy_lapack(sizes, seed):
    """One field alone, or a block-diagonal stack of fields with an exact 0 between two
    fields, laid out as DiffusionSolver lays them."""
    rng = np.random.default_rng(seed)
    diags, offs = [], []
    for n in sizes:
        d, e = positive_definite(rng, n)
        expected_d, expected_e, expected_info = PTTRF(d, e)
        info = spectral._pttrf(d, e)
        assert info == expected_info == 0
        assert (d.tobytes(), e.tobytes()) == (expected_d.tobytes(), expected_e.tobytes())
        diags.append(d)
        offs.append(np.append(e, 0.0))
    d, e = np.concatenate(diags), np.concatenate(offs)[:-1]
    b = rng.uniform(-1.0, 1.0, d.size) * 10.0 ** rng.uniform(-300.0, 3.0, d.size)
    expected, expected_info = PTTRS(d, e, b)
    assert pttrs(d, e, b) == expected_info == 0
    assert b.tobytes() == expected.tobytes()


ROUTINES = {
    "gtsv": lambda ab, x: spectral._gtsv(ab, x),
    "gbsv": lambda work, x: spectral._gbsv(work, 2, x),
    "pttrf": lambda d, e: spectral._pttrf(d, e),
    "pttrs": pttrs,
}
# routine -> the argument that is made float32, the one that is made a non-contiguous view,
# and the one that is made one entry short
SPOILED = {
    "gtsv": {"float32": "x", "non-contiguous": "ab", "short": "x"},
    "gbsv": {"float32": "work", "non-contiguous": "work", "short": "x"},
    "pttrf": {"float32": "d", "non-contiguous": "e", "short": "e"},
    "pttrs": {"float32": "x", "non-contiguous": "d", "short": "x"},
}


def good_arguments(routine: str, n: int = 7) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(0)
    d, e = positive_definite(rng, n)
    work = np.zeros((7, n), order="F")
    work[2:] = random_band(rng, 2, n, "dominant")
    arguments = {"ab": random_band(rng, 1, n, "dominant"), "work": work, "d": d, "e": e,
                 "x": np.ones(n)}
    return {name: arguments[name] for name in inspect.signature(ROUTINES[routine]).parameters}


def spoil(how: str, a: np.ndarray) -> np.ndarray:
    if how == "float32":
        return a.astype(np.float32)
    if how == "non-contiguous":
        wide = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        wide[..., ::2] = a
        return wide[..., ::2]
    return a[..., :-1].copy(order="A")


@pytest.mark.parametrize("how", ["float32", "non-contiguous", "short"])
@pytest.mark.parametrize("routine", sorted(ROUTINES))
def test_each_bound_routine_rejects_a_bad_array_before_lapack_runs(routine, how):
    arguments = good_arguments(routine)
    name = SPOILED[routine][how]
    arguments[name] = spoil(how, arguments[name])
    before = {name: a.copy() for name, a in arguments.items()}
    with pytest.raises(ValueError, match="LAPACK needs a C-contiguous float64 array"):
        ROUTINES[routine](**arguments)
    for name, a in arguments.items():
        assert a.tobytes() == before[name].tobytes(), name
    assert ROUTINES[routine](**good_arguments(routine)) == 0  # the good arrays pass


def test_diffusion_solver_rejects_a_right_hand_side_of_the_wrong_length():
    solver = spectral.DiffusionSolver(build_grid(0.0, 1.0, 11), [0.5, 2.0], 0.01)
    for y in (np.ones(21), np.ones(1), np.ones((3, 11))):
        with pytest.raises(ValueError, match="right-hand side"):
            solver.solve(y)
    assert solver.solve(np.ones((2, 11))).shape == (2, 11)


# A small-grid run of each task; the routines each makes: eigen gbsv, steady pttrf and
# pttrs, threshold d_c gtsv and gbsv, sweep all four.
SMALL_RUNS = {
    "eigen": ("reference.json", {"grid": {"a": 0.0, "b": 1.0, "n": 61}}),
    "steady": ("reference.json", {"grid": {"a": 0.0, "b": 1.0, "n": 61}}),
    "threshold": ("threshold_dc.json", {"grid": {"a": 0.0, "b": 1.0, "n": 61}}),
    "sweep": ("sweep_d3.json", {"grid": {"a": 0.0, "b": 1.0, "n": 61},
                                "task": {"name": "sweep", "parameter": "d3",
                                         "values": [0.05, 1.5]},
                                "solver": {"dt": 0.05, "t_max": 400.0, "sample_every": 10.0}}),
}
WITHOUT_SCIPY = """
import runpy, sys
sys.modules["scipy"] = None  # any import of scipy or a scipy module raises ImportError
runpy.run_module("dispersal_lab", run_name="__main__", alter_sys=True)
"""


def outputs(out: Path) -> dict[str, bytes]:
    return {path.relative_to(out).as_posix(): path.read_bytes()
            for path in sorted(out.rglob("*")) if path.is_file()}


@pytest.mark.parametrize("task", sorted(SMALL_RUNS))
def test_the_lab_runs_each_task_without_scipy_and_writes_the_same_bytes(task, tmp_path):
    name, changes = SMALL_RUNS[task]
    config = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8")) | changes
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    args = [task, "--config", str(path), "--out"]
    normal = run_python("-m", "dispersal_lab", *args, str(tmp_path / "normal"))
    blocked = run_python("-c", WITHOUT_SCIPY, *args, str(tmp_path / "blocked"))
    assert blocked.stderr == normal.stderr == ""
    assert (blocked.returncode, blocked.stdout) == (normal.returncode, normal.stdout)
    assert normal.returncode in (0, 3), normal.stdout
    written = outputs(tmp_path / "normal")
    assert len(written) >= 2
    assert outputs(tmp_path / "blocked") == written


LOAD_CONFIGS = """
import sys
from pathlib import Path
from dispersal_lab import cli
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    cli.load_config(path)
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_loading_the_lab_and_every_shipped_config_imports_no_scipy_module():
    assert python_stdout(LOAD_CONFIGS, str(ROOT / "configs")) == "[]"


def modules_naming(pattern: str) -> list[str]:
    return [path.relative_to(SRC).as_posix() for path in sorted(SRC.rglob("*.py"))
            if re.search(pattern, path.read_text(encoding="utf-8"), re.IGNORECASE)]


def test_no_module_names_scipy_and_spectral_alone_names_the_openblas_library():
    assert modules_naming(r"\bscipy\b") == []  # the package; scipy_ starts symbol names
    assert modules_naming("openblas") == ["dispersal_lab/spectral.py"]


MISSING_LIBRARY = """
import sys
import numpy
numpy.__file__ = sys.argv[1]  # where the loader looks for numpy.libs/
try:
    import dispersal_lab
except ImportError as exc:
    print(exc.path, "|", exc)
"""


def test_a_missing_openblas_fails_at_import_naming_directory_and_pattern(tmp_path):
    fake_numpy = tmp_path / "site-packages" / "numpy" / "__init__.py"
    path, message = python_stdout(MISSING_LIBRARY, str(fake_numpy)).split(" | ")
    directory = str(tmp_path / "site-packages" / "numpy.libs")
    assert path == directory
    assert directory in message
    assert "libscipy_openblas64_*.so" in message
