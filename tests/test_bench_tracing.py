"""bench/tracing.py wraps lab functions by name and skips a missing one silently,
so its metrics would read 0.  Every target it names must still exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lab_module(name):
    return importlib.import_module(f"dispersal_lab.{name}")


def test_every_traced_target_resolves():
    tracing = load_tracing()
    missing = [f"{mod}.{func}" for mod, func, _ in tracing.FUNCTIONS
               if not callable(getattr(lab_module(mod), func, None))]
    missing += [f"{mod}.{cls}.{method}" for mod, cls, method in tracing.METHODS
                if not callable(getattr(getattr(lab_module(mod), cls, None), method, None))]
    assert tracing.FUNCTIONS and tracing.METHODS
    assert not missing, f"bench/tracing.py targets missing from dispersal_lab: {missing}"
