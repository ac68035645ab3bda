"""Spans around the lab's layers, recorded from outside the package.

``Tracer.install`` replaces each traced function in every
``dispersal_lab`` module namespace that holds it (``analysis`` and
``cli`` import ``integrate_to_steady`` and ``principal_eigen`` by name),
and each traced method on its class.  A wrapper records one span: name,
start, end, parent span, whether it returned, and one number taken from
the result (steps, iterations or bytes).  Spans stay in flat arrays in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from pathlib import Path

import numpy as np


def _steps(result) -> int:
    return int(result.steps)


def _iterations(result) -> int:
    return int(result.iterations)


def _file_size(result) -> int:
    return Path(result).stat().st_size


# (module, function, value taken from the result)
FUNCTIONS = (
    ("cli", "load_config", None),
    ("cli", "run_scenario", None),
    ("cli", "_write_csv", _file_size),
    ("cli", "_write_report", _file_size),
    ("svgplot", "line_plot", _file_size),
    ("analysis", "sweep_outcomes", None),
    ("analysis", "find_threshold", None),
    ("analysis", "lambda2_sign_changes", None),
    ("analysis", "subsystem_steady", None),
    ("analysis", "logistic_steady", None),
    ("spectral", "bisect_curve", None),
    ("spectral", "find_mu_roots", None),
    ("spectral", "mu_star_scalar", None),
    ("spectral", "principal_eigen", _iterations),
    ("dynamics", "integrate_to_steady", _steps),
    ("dynamics", "rhs_residual", None),
    ("model", "reaction_rhs", None),
    ("mesh", "assemble_neumann_laplacian", None),
)
# (module, class, method)
METHODS = (
    ("dynamics", "ImexStepper", "__init__"),
    ("dynamics", "ImexStepper", "step"),
    ("dynamics", "DiffusionSolver", "solve"),
    ("spectral", "BandedOperator", "solve_shifted"),
)
ROOT_FINDERS = (
    "analysis.find_threshold",
    "analysis.lambda2_sign_changes",
    "spectral.bisect_curve",
    "spectral.find_mu_roots",
    "spectral.mu_star_scalar",
)
STEADY_FINDERS = ("analysis.subsystem_steady", "analysis.logistic_steady")
WRITERS = ("cli._write_csv", "cli._write_report", "svgplot.line_plot")

# name -> (unit, better); the README says which end-to-end metric each should move.
LAYER_METRICS = {
    "dynamics.imex_steps": ("count", "lower"),
    "dynamics.step_us": ("us", "lower"),
    "dynamics.diffusion_us": ("us", "lower"),
    "model.reaction_us": ("us", "lower"),
    "dynamics.state_us": ("us", "lower"),
    "dynamics.residual_checks": ("count", "lower"),
    "dynamics.residual_us": ("us", "lower"),
    "mesh.laplacian_builds": ("count", "lower"),
    "dynamics.stepper_builds": ("count", "lower"),
    "dynamics.stepper_build_us": ("us", "lower"),
    "dynamics.steady_solves": ("count", "lower"),
    "dynamics.steady_s": ("s", "lower"),
    "spectral.eigen_solves": ("count", "lower"),
    "spectral.eigen_iters": ("count", "lower"),
    "spectral.eigen_ms": ("ms", "lower"),
    "spectral.banded_us": ("us", "lower"),
    "analysis.curve_evals": ("count", "lower"),
    "analysis.rootfind_s": ("s", "lower"),
    "analysis.steady_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.write_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.value = array("q")
        self.ok = array("b")
        self._stack = [-1]

    def install(self) -> None:
        """Wrap every traced function and method of the already imported lab.

        A target the lab no longer has is skipped, and its metrics read 0.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if name == "dispersal_lab" or name.startswith("dispersal_lab.")]
        for mod_name, func_name, take in FUNCTIONS:
            original = getattr(sys.modules[f"dispersal_lab.{mod_name}"], func_name, None)
            self.names.append(f"{mod_name}.{func_name}")
            if original is None:
                continue
            wrapper = self._wrap(len(self.names) - 1, original, take)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
        for mod_name, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"dispersal_lab.{mod_name}"], cls_name, None)
            original = getattr(cls, method, None)
            self.names.append(f"{mod_name}.{cls_name}.{method}")
            if original is not None:
                setattr(cls, method, self._wrap(len(self.names) - 1, original, None))

    def _wrap(self, nid: int, fn, take):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.value.append(0)
            self.ok.append(0)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            self.ok[idx] = 1
            if take is not None:
                self.value[idx] = take(result)
            return result

        return wrapper

    def mark(self) -> int:
        """Index of the next span, to split the run into phases."""
        return len(self.name_id)

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            value=np.frombuffer(self.value, dtype=np.int64),
            ok=np.frombuffer(self.ok, dtype=np.int8),
        )

    def summarize(self, warmup_start: int, measured_start: int, rounds: int) -> tuple[dict, list[str]]:
        """Per-layer metrics of the measured rounds, and count cross-check failures.

        Counts and totals are per round; *_us and *_ms are means per call.
        Self time is a span's duration minus the durations of its children.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)) * 1e-9
        value = np.frombuffer(self.value, dtype=np.int64)
        ok = np.frombuffer(self.ok, dtype=np.int8).astype(bool)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        index = np.arange(len(dur))
        measured = index >= measured_start

        def named(*labels: str) -> np.ndarray:
            ids = [self.names.index(label) for label in labels]
            return np.isin(name_id, ids)

        def below(marked: np.ndarray) -> np.ndarray:
            """Spans with at least one proper ancestor in marked."""
            out = np.zeros(len(parent), dtype=bool)
            up = parent.copy()
            while np.any(up >= 0):
                live = up >= 0
                out[live] |= marked[up[live]]
                up[live] = parent[up[live]]
            return out

        def mean_us(mask: np.ndarray, seconds: np.ndarray = dur) -> float:
            return float(seconds[mask].mean() * 1e6) if mask.any() else 0.0

        def per_round(x) -> float:
            return float(x) / rounds

        step = named("dynamics.ImexStepper.step")
        eigen = named("spectral.principal_eigen")
        steady = named("dynamics.integrate_to_steady")
        banded = named("spectral.BandedOperator.solve_shifted")
        finders = named(*ROOT_FINDERS)
        steady_finders = named(*STEADY_FINDERS)
        writers = named(*WRITERS)
        under_raised_eigen = below(eigen & ~ok)
        eigen_iters = value * (eigen & ok) + (banded & under_raised_eigen)

        m = measured
        metrics = {
            "dynamics.imex_steps": per_round(np.sum(step & ok & m)),
            "dynamics.step_us": mean_us(step & ok & m),
            "dynamics.diffusion_us": mean_us(named("dynamics.DiffusionSolver.solve") & m),
            "model.reaction_us": mean_us(named("model.reaction_rhs") & m),
            "dynamics.state_us": mean_us(step & ok & m, dur - child_time),
            "dynamics.residual_checks": per_round(np.sum(named("dynamics.rhs_residual") & m)),
            "dynamics.residual_us": mean_us(named("dynamics.rhs_residual") & m),
            "mesh.laplacian_builds": per_round(np.sum(named("mesh.assemble_neumann_laplacian") & m)),
            "dynamics.stepper_builds": per_round(np.sum(named("dynamics.ImexStepper.__init__") & m)),
            "dynamics.stepper_build_us": mean_us(named("dynamics.ImexStepper.__init__") & m),
            "dynamics.steady_solves": per_round(np.sum(steady & m)),
            "dynamics.steady_s": per_round(dur[steady & m & ~below(steady)].sum()),
            "spectral.eigen_solves": per_round(np.sum(eigen & m)),
            "spectral.eigen_iters": per_round(eigen_iters[m].sum()),
            "spectral.eigen_ms": mean_us(eigen & m) / 1e3,
            "spectral.banded_us": mean_us(banded & m),
            "analysis.curve_evals": per_round(np.sum(eigen & m & below(finders))),
            "analysis.rootfind_s": per_round(dur[finders & m & ~below(finders)].sum()),
            "analysis.steady_s": per_round(dur[steady_finders & m & ~below(steady_finders)].sum()),
            "cli.parse_s": float(dur[named("cli.load_config") & (index < warmup_start)].sum()),
            "cli.write_s": per_round(dur[writers & m & ~below(writers)].sum()),
            "cli.bytes_written": per_round(value[writers & m].sum()),
        }

        # Both counted methods are class attributes, so no caller bypasses
        # them; a wrapper missing from some namespace shows as a mismatch.
        problems = []
        steps_done = int(np.sum(step & ok))
        steps_reported = int(value[steady & ok].sum()) + int(np.sum(step & ok & below(steady & ~ok)))
        if steps_done != steps_reported:
            problems.append(f"cross-check: {steps_done} ImexStepper.step calls returned, "
                            f"integrate_to_steady accounts for {steps_reported}")
        solves = int(np.sum(banded))
        iterations = int(eigen_iters.sum())
        if solves != iterations:
            problems.append(f"cross-check: {solves} BandedOperator.solve_shifted calls, "
                            f"principal_eigen accounts for {iterations} iterations")
        return metrics, problems
