"""Checks of the lab's outputs against the oracles in ``oracle.py``.

Each check returns a list of problems; an empty list means the outputs
passed.  Nothing is compared with stored copies of earlier output: every
expected value is derived here, from the config alone.  Operations that
failed are counted by the worker and not checked.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import oracle as O
from plan import D_LATTICE, MU_LATTICE, lattice

# Program eigenvalues from steady states stopped at a residual of 1e-9
# agree with the oracle to about 4e-9 (measured at n=201).
EIGEN_TOL = 1e-7
# Relative step either side of a root at which the oracle's sign is read.
ROOT_STEP = 1e-4
# |root(401) - root(801)| / |root(801)| <= SECOND_ORDER * h(401)^2; the
# measured constants are 0.15 (d_c) to 0.7 (mu_star).
SECOND_ORDER = 4.0
# Scan points also compared with a dense eigensolve (others by residual).
DENSE_POINTS = (0, 21, 42, 63)
DENSE_MAX_N = 801


class Setting:
    """Grid, coefficients and own stencil of one config."""

    def __init__(self, config: dict):
        grid = config["grid"]
        self.n, self.a, self.b = grid["n"], grid["a"], grid["b"]
        self.p = config["params"]
        self.alpha = O.coefficient(self.p["alpha"], self.n, self.a, self.b)
        self.beta = O.coefficient(self.p["beta"], self.n, self.a, self.b)
        self.m = O.coefficient(self.p["m"], self.n, self.a, self.b)
        self.lap = O.laplacian(self.n, self.a, self.b)

    def scalar(self, d: float, potential: np.ndarray):
        return O.scalar_operator(self.lap, d, potential)

    def pair(self, growth: np.ndarray, alpha=None, beta=None):
        alpha = self.alpha if alpha is None else alpha
        beta = self.beta if beta is None else beta
        return O.pair_operator(self.lap, self.p["d1"], self.p["d2"], alpha, beta, growth)

    def pair_state(self):
        return O.pair_state(self.lap, self.p["d1"], self.p["d2"], self.alpha, self.beta, self.m)

    def logistic_state(self, d3: float):
        return O.logistic_state(self.lap, d3, self.m)


def read_config(op: dict) -> dict:
    return json.loads(Path(op["config"]).read_text(encoding="utf-8"))


def read_csv(path: Path) -> list[dict]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# race


def check_sweep(rows: list[dict], config: dict) -> list[str]:
    """Sweep rows against semi-trivial eigenvalues from own steady states."""
    s = Setting(config)
    values = [float(r["value"]) for r in rows]
    problems = []
    if values != sorted(float(v) for v in config["task"]["values"]):
        problems.append(f"sweep rows {values} are not the configured d3 values in order")
    uv0 = [float(r["lambda_uv0"]) for r in rows]
    if not all(right < left for left, right in zip(uv0, uv0[1:])):
        problems.append(f"lambda_uv0 is not strictly decreasing in d3: {uv0}")
    u, v = s.pair_state()
    for row, d3 in zip(rows, values):
        lam_uv0 = O.rightmost(s.scalar(d3, s.m - u - v))
        lam_00w = O.rightmost(s.pair(s.m - s.logistic_state(d3)))
        for name, oracle_value in (("lambda_uv0", lam_uv0), ("lambda_00w", lam_00w)):
            if abs(float(row[name]) - oracle_value) > EIGEN_TOL:
                problems.append(f"d3={d3}: {name} {row[name]} vs dense oracle {oracle_value:.12g}")
        if lam_uv0 > 0 > lam_00w:
            predicted = "w_wins"
        elif lam_00w > 0 > lam_uv0:
            predicted = "uv_wins"
        else:
            predicted = "no prediction"
        if row["outcome"] != predicted:
            problems.append(f"d3={d3}: outcome {row['outcome']}, eigenvalue signs predict {predicted}")
    return problems


def check_race(plan: dict, first: dict) -> list[str]:
    problems = []
    for op in plan["ops"]:
        ok, _ = first[op["id"]]
        if ok:
            rows = read_csv(Path(op["out"]) / "sweep.csv")
            problems += [f"{op['id']}: {p}" for p in check_sweep(rows, read_config(op))]
    return problems


# ---------------------------------------------------------------------------
# thresholds


def oracle_curve(name: str, config: dict):
    """The eigenvalue whose sign change defines the named threshold, as a function."""
    s = Setting(config)
    p = s.p
    if name == "d_c":
        u, v = s.pair_state()
        return lambda d3: O.rightmost(s.scalar(d3, s.m - u - v))
    if name == "d_0":
        return lambda d3: O.rightmost(s.pair(s.m - s.logistic_state(d3)))
    if name in ("beta_c", "alpha_c"):
        growth = s.m - s.logistic_state(p["d3"])
        if name == "beta_c":
            return lambda rate: O.rightmost(s.pair(growth, beta=np.full(s.n, rate)))
        return lambda rate: O.rightmost(s.pair(growth, alpha=np.full(s.n, rate)))
    if name == "mu_star":
        return lambda mu: O.rightmost(s.scalar(1.0 / mu, s.m))
    if name == "mu_zero":
        return lambda mu: O.rightmost(s.pair(mu * s.m))
    raise ValueError(f"no oracle curve for {name!r}")


def bracket_problem(name: str, root: float, p: dict) -> str | None:
    """The paper's bracket for each threshold (constant switching rates)."""
    d1, d2, d3 = p["d1"], p["d2"], p["d3"]
    alpha, beta = p["alpha"].get("value"), p["beta"].get("value")
    if name in ("d_c", "d_0"):
        hi = (beta * d1 + alpha * d2) / (alpha + beta)
        inside = d1 < root < hi
        bracket = f"({d1}, {hi})"
    elif name == "beta_c":
        hi = (d2 - d3) / (d3 - d1) * alpha
        inside = 0 < root < hi
        bracket = f"(0, {hi})"
    elif name == "alpha_c":
        lo = (d3 - d1) / (d2 - d3) * beta
        inside = root > lo
        bracket = f"({lo}, inf)"
    else:
        inside = root > 0
        bracket = "(0, inf)"
    return None if inside else f"{name} = {root!r} outside {bracket}"


def check_root(name: str, root: float, config: dict) -> list[str]:
    """Root inside its bracket, and the oracle eigenvalue changes sign across it."""
    problems = []
    outside = bracket_problem(name, root, config["params"])
    if outside:
        problems.append(outside)
    curve = oracle_curve(name, config)
    left, right = curve(root * (1 - ROOT_STEP)), curve(root * (1 + ROOT_STEP))
    if not left * right < 0:
        problems.append(f"{name} = {root!r}: oracle eigenvalue does not change sign "
                        f"({left:.3e} -> {right:.3e})")
    return problems


def check_thresholds(plan: dict, first: dict) -> list[str]:
    problems = []
    roots: dict[str, dict[int, tuple[float, float]]] = {}
    for op in plan["ops"]:
        ok, _ = first[op["id"]]
        if not ok:
            continue
        config = read_config(op)
        root = float(read_csv(Path(op["out"]) / "threshold.csv")[0]["root"])
        problems += [f"{op['id']}: {p}" for p in check_root(op["threshold"], root, config)]
        h = (config["grid"]["b"] - config["grid"]["a"]) / (op["n"] - 1)
        roots.setdefault(op["threshold"], {})[op["n"]] = (root, h)
    for name, by_n in roots.items():
        if len(by_n) == 2:
            (coarse, h), (fine, _) = (by_n[n] for n in sorted(by_n))
            if abs(coarse - fine) > SECOND_ORDER * h * h * abs(fine):
                problems.append(f"{name}: roots {coarse!r} and {fine!r} differ by more than "
                                f"{SECOND_ORDER} h^2 (relative)")
    return problems


# ---------------------------------------------------------------------------
# spectra


def check_eigenpair(op, lam: float, phi: np.ndarray, dense: bool) -> list[str]:
    """Positive eigenfunction, residual at rounding level, lambda inside the
    Collatz-Wielandt enclosure and, for small problems, the dense eigenvalue."""
    d = O.eigenpair_defects(op, lam, phi)
    problems = []
    if d["min_phi"] <= 0:
        problems.append(f"eigenfunction is not positive (min {d['min_phi']:.3e})")
        return problems
    if d["residual"] > 1e-9 + d["rounding"]:
        problems.append(f"residual {d['residual']:.3e} above {1e-9 + d['rounding']:.3e}")
    if d["cw_gap"] > 0:
        problems.append(f"lambda {lam!r} outside the Collatz-Wielandt enclosure by {d['cw_gap']:.3e}")
    if dense:
        # Dense eigvals is itself only accurate to a few eps * ||A||.
        exact = O.rightmost(op)
        if abs(lam - exact) > 1e-8 * (1 + abs(exact)) + d["rounding"]:
            problems.append(f"lambda {lam!r} vs dense oracle {exact!r}")
    return problems


def _stacked(result) -> np.ndarray:
    return np.concatenate(list(result.eigenfunctions))


def check_eigen_task(op: dict, config: dict) -> list[str]:
    s = Setting(config)
    out = Path(op["out"])
    lam = float(read_csv(out / "eigen.csv")[0]["lambda"])
    rows = read_csv(out / "eigenfunctions.csv")
    columns = [k for k in rows[0] if k.startswith("component_")]
    phi = np.concatenate([[float(r[k]) for r in rows] for k in columns])
    if op["system"] == "logistic":
        matrix = s.scalar(s.p["d3"], s.m)
    else:
        matrix = s.pair(s.m)
    problems = check_eigenpair(matrix, lam, phi, dense=s.n <= DENSE_MAX_N)
    constant = all(s.p[k]["kind"] == "constant" for k in ("alpha", "beta", "m"))
    if constant and abs(lam - s.m[0]) > 64 * O.EPS * O.inf_norm(matrix):
        problems.append(f"constant coefficients: lambda {lam!r} is not m = {s.m[0]!r}")
    return problems


def check_adjoint(output, config: dict) -> list[str]:
    s = Setting(config)
    primal, adjoint = output
    matrix = s.pair(s.m)
    problems = ["primal: " + p for p in check_eigenpair(matrix, primal.lam, _stacked(primal), True)]
    problems += ["adjoint: " + p for p in check_eigenpair(
        O.weighted_adjoint(matrix, s.n, s.a, s.b), adjoint.lam, _stacked(adjoint), False)]
    if abs(adjoint.lam - primal.lam) > 1e-9 * (1 + abs(primal.lam)):
        problems.append(f"adjoint lambda {adjoint.lam!r} != primal lambda {primal.lam!r}")
    return problems


def check_scan(kind: str, results: list, config: dict) -> list[str]:
    s = Setting(config)
    problems = []
    points = lattice(MU_LATTICE if kind == "scan_mu" else D_LATTICE)
    for i, (x, result) in enumerate(zip(points, results)):
        matrix = s.pair(x * s.m) if kind == "scan_mu" else s.scalar(x, s.m)
        dense = i in DENSE_POINTS and s.n <= DENSE_MAX_N
        problems += [f"point {i} ({x:.4g}): {p}"
                     for p in check_eigenpair(matrix, result.lam, _stacked(result), dense)]
    lams = [r.lam for r in results]
    if kind == "scan_d" and not all(b < a for a, b in zip(lams, lams[1:])):
        problems.append("lambda(d) is not strictly decreasing in d")
    return problems


def check_spectra(plan: dict, first: dict) -> list[str]:
    problems = []
    for op in plan["ops"]:
        ok, output = first[op["id"]]
        if not ok:
            continue
        config = read_config(op)
        if op["kind"] == "cli":
            found = check_eigen_task(op, config)
        elif op["kind"] == "adjoint":
            found = check_adjoint(output, config)
        else:
            found = check_scan(op["kind"], output, config)
        problems += [f"{op['id']}: {p}" for p in found]
    return problems


def check(plan: dict, first: dict) -> list[str]:
    """Problems found in a workload's outputs.

    first maps each operation to its first round's (succeeded, output);
    the worker has already checked that later rounds produced the same bytes.
    """
    return {"race": check_race, "thresholds": check_thresholds,
            "spectra": check_spectra}[plan["workload"]](plan, first)
