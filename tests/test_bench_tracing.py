"""bench/tracing.py wraps lab functions by name and skips a missing one silently,
so its metrics would read 0.  Every target it names must still exist."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# The benchmark also calls lab names directly; a deletion that removes one breaks
# bench/ without failing any other test.
BENCH_SCRIPTS = ("worker.py", "oracle_selftest.py")
LAB_MODULES = ("cli", "model", "spectral", "analysis")


def test_every_lab_name_the_benchmark_calls_resolves():
    used = set()
    for script in BENCH_SCRIPTS:
        tree = ast.parse((TRACING.parent / script).read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in LAB_MODULES):
                used.add((node.value.id, node.attr))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("dispersal_lab."):
                used.update((node.module.split(".", 1)[1], alias.name) for alias in node.names)
    missing = [f"{mod}.{name}" for mod, name in sorted(used)
               if not hasattr(lab_module(mod), name)]
    assert ("spectral", "scalar_eigenvalue") in used and ("cli", "RunArtifacts") in used
    assert not missing, f"bench/ uses names missing from dispersal_lab: {missing}"


# Tracer.install patches module namespaces for good, so the traced run gets its
# own interpreter.  It prints the cross-check problems and, per traced name,
# how many calls ran inside a steady-state helper.
TRACED_RUN = """
import importlib.util, json, sys
import numpy as np
from dispersal_lab import cli, svgplot  # tracing wraps names in every lab module
from dispersal_lab import analysis
from dispersal_lab.mesh import build_grid
from dispersal_lab.model import CoefficientSpec, ModelParams

spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracer.install()
params = ModelParams(d1=0.1, d2=1.0, d3=0.4, alpha=CoefficientSpec.constant(1.0),
                     beta=CoefficientSpec.constant(1.0), m=CoefficientSpec.cosine(0.4, 0.3, 1))
for name in ("d_c", "d_0"):
    analysis.find_threshold(name, params, build_grid(0, 1, 41))
# mu_star scans scalar eigenvalues (gtsv); the pair eigensolves of d_0 use gbsv.
sign_changing = ModelParams(d1=0.1, d2=1.0, d3=0.4, alpha=CoefficientSpec.constant(1.0),
                            beta=CoefficientSpec.constant(1.0),
                            m=CoefficientSpec.cosine(-0.1, 0.3, 1))
analysis.find_threshold("mu_star", sign_changing, build_grid(0, 1, 41))
_, problems = tracer.summarize(0, 0, 1)

name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
parent = np.frombuffer(tracer.parent, dtype=np.int32)
helpers = np.isin(name_id, [tracer.names.index(h) for h in tracing.STEADY_FINDERS])
inside = np.zeros(len(parent), dtype=bool)
up = parent.copy()
while np.any(up >= 0):
    live = up >= 0
    inside[live] |= helpers[up[live]]
    up[live] = parent[up[live]]
calls = {name: [int(np.sum(name_id == i)), int(np.sum((name_id == i) & inside))]
         for i, name in enumerate(tracer.names)}
print(json.dumps({"problems": problems, "calls": calls}))
"""


def test_traced_thresholds_pass_the_cross_checks_and_helpers_do_not_step():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, str(TRACING)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    calls = out["calls"]
    assert out["problems"] == []
    assert calls["analysis.subsystem_steady"][0] >= 1 and calls["analysis.logistic_steady"][0] >= 17
    assert calls["spectral.BandedOperator.solve_shifted"][0] > 0
    assert calls["spectral.mu_star_scalar"][0] == 1
    assert calls["dynamics.ImexStepper.step"][1] == 0
    assert calls["spectral.BandedOperator.solve_shifted"][1] == 0
