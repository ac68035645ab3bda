"""Batch front door: JSON scenario configs in, CSV/SVG/report files out.

Subcommands mirror the tasks in TASKS.  Exit codes: 0 success, 1 verify-check
failure, 2 validation error, 3 numerical failure, 4 hypothesis violation.
Identical config and seed produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .mesh import Grid, build_grid, finite_number, float_array
from .model import (
    CoefficientSpec,
    HypothesisError,
    ModelParams,
    SystemKind,
    sample_coefficients,
)
from .dynamics import (
    SolverOptions,
    State,
    StepOvershootError,
    constant_state,
    eigenfunction_state,
    integrate_to_steady,
    persistence_floor,
    random_state,
)
from .spectral import (
    ConvergenceError,
    principal_eigen,
    scalar_problem,
    switching_problem,
)
from . import analysis as an
from . import svgplot
from .verify import CHECKERS, VerifyContext, run_battery

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_HYPOTHESIS = 4


class ConfigError(ValueError):
    pass


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class ScenarioConfig:
    grid: Grid
    params: ModelParams
    system: SystemKind
    task: str
    output_dir: Path
    seed: int = 0
    solver: SolverOptions = field(default_factory=SolverOptions)
    threshold_name: Optional[str] = None
    sweep_parameter: Optional[str] = None
    sweep_values: Optional[list[float]] = None
    initial: Optional[dict] = None
    scan_points: int = 64
    verify_groups: Optional[list[str]] = None


# The numbers of each kind of initial data, with their conversions.
INITIAL_NUMBERS = {"constant": {"values": float_array},
                   "random": {"low": float, "high": float, "seed": int},
                   "eigenfunction": {"scale": float}}


def _coefficient_from_dict(data: dict, name: str) -> CoefficientSpec:
    if not isinstance(data, dict) or "kind" not in data:
        raise ConfigError(f"coefficient {name!r} must be an object with a 'kind' key")
    kind = data["kind"]
    try:
        if kind == "constant":
            return CoefficientSpec.constant(data["value"])
        if kind == "cosine_profile":
            return CoefficientSpec.cosine(data["mean"], data["amplitude"], data.get("frequency", 1))
        if kind == "samples":
            return CoefficientSpec.from_samples(data["values"])
    except KeyError as exc:
        raise ConfigError(f"coefficient {name!r} is missing field {exc}") from exc
    raise ConfigError(f"coefficient {name!r} has unknown kind {kind!r}")


def parse_config(data: dict, base_dir: Path = Path(".")) -> ScenarioConfig:
    try:
        grid_spec = data["grid"]
        grid = build_grid(grid_spec["a"], grid_spec["b"], grid_spec["n"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"invalid or missing grid section: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    try:
        p = data["params"]
        params = ModelParams(
            d1=finite_number(p["d1"]),
            d2=finite_number(p["d2"]),
            d3=finite_number(p.get("d3", 1.0)),
            b=finite_number(p.get("b", 1.0)),
            c=finite_number(p.get("c", 1.0)),
            alpha=_coefficient_from_dict(p["alpha"], "alpha"),
            beta=_coefficient_from_dict(p["beta"], "beta"),
            m=_coefficient_from_dict(p["m"], "m"),
        )
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"invalid or missing params section: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    system_tag = data.get("system", "submodel")
    try:
        system = SystemKind(system_tag)
    except ValueError as exc:
        raise ConfigError(f"unknown system kind {system_tag!r}") from exc

    task_spec = data.get("task")
    if isinstance(task_spec, str):
        task_spec = {"name": task_spec}
    # Names are matched against tuples, so an unhashable one is rejected, not raised on.
    if not isinstance(task_spec, dict) or task_spec.get("name") not in tuple(TASKS):
        raise ConfigError(f"task must name one of {tuple(TASKS)}")
    task = task_spec["name"]

    solver_spec = data.get("solver", {})
    if not isinstance(solver_spec, dict):
        raise ConfigError("solver section must be an object")
    threshold_name = task_spec.get("threshold_name")
    if task == "threshold" and threshold_name not in tuple(an.THRESHOLDS):
        raise ConfigError(
            f"threshold task needs threshold_name in {{{', '.join(an.THRESHOLDS)}}}"
        )
    sweep_parameter = task_spec.get("parameter")
    sweep_values = task_spec.get("values")
    if task == "sweep":
        if sweep_parameter not in an.SWEEP_PARAMETERS:
            raise ConfigError(f"sweep task needs parameter in {{{', '.join(an.SWEEP_PARAMETERS)}}}")
        if not isinstance(sweep_values, list) or not sweep_values:
            raise ConfigError("sweep task needs a non-empty list of values")
    defaults = SolverOptions()
    try:
        solver = SolverOptions(
            dt=finite_number(solver_spec.get("dt", defaults.dt)),
            tol=finite_number(solver_spec.get("tol", defaults.tol)),
            t_max=finite_number(solver_spec.get("t_max", defaults.t_max)),
            sample_every=finite_number(solver_spec.get("sample_every", defaults.sample_every)),
        )
        scan_points = finite_number(solver_spec.get("scan_points", 64), int)
        seed = finite_number(data.get("seed", 0), int)
        if task == "sweep":
            sweep_values = [finite_number(v) for v in sweep_values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(
            f"solver settings, seed and sweep values must be numbers: {exc}"
        ) from exc
    if not all(x > 0 for x in (solver.dt, solver.tol, solver.t_max, solver.sample_every)):
        raise ConfigError("solver dt, tol, t_max, sample_every must all be positive")

    verify_groups = task_spec.get("groups")
    if verify_groups is not None:
        if not isinstance(verify_groups, list):
            raise ConfigError("verify groups must be a list of group names")
        if not verify_groups:
            raise ConfigError(f"verify groups must name at least one group; "
                              f"available: {list(CHECKERS)}")
        unknown = [gname for gname in verify_groups if gname not in tuple(CHECKERS)]
        if unknown:
            raise ConfigError(f"unknown verify groups: {unknown}; available: {list(CHECKERS)}")

    initial = data.get("initial")
    if initial is not None:
        if not isinstance(initial, dict) or initial.get("kind") not in tuple(INITIAL_NUMBERS):
            raise ConfigError("initial data kind must be constant, random, or eigenfunction")
        if initial["kind"] == "constant" and "values" not in initial:
            raise ConfigError("constant initial data needs per-component values")
        numbers = INITIAL_NUMBERS[initial["kind"]]
        try:
            initial = {"kind": initial["kind"]} | {
                key: finite_number(initial[key], convert) for key, convert in numbers.items()
                if key in initial}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"initial data fields {list(numbers)} must be numbers: {exc}") from exc

    out_dir = Path(data.get("output", "out"))
    if not out_dir.is_absolute():
        out_dir = base_dir / out_dir
    return ScenarioConfig(
        grid=grid,
        params=params,
        system=system,
        task=task,
        output_dir=out_dir,
        seed=seed,
        solver=solver,
        threshold_name=threshold_name,
        sweep_parameter=sweep_parameter,
        sweep_values=sweep_values,
        initial=initial,
        scan_points=scan_points,
        verify_groups=verify_groups,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, base_dir=path.parent)


@dataclass
class RunArtifacts:
    csv_paths: list[Path]
    svg_paths: list[Path]
    report_path: Optional[Path]
    exit_status: int


def _csv_text(x, alone: bool) -> str:
    """str(x) as csv.writer writes it: quoted if it has , " \r \n or is a row's empty only cell."""
    s = str(x)
    if any(c in s for c in ',"\r\n') or (alone and not s):
        return '"' + s.replace('"', '""') + '"'
    return s


def _write_csv(path: Path, header: list[str], rows) -> Path:
    """Write header and rows, a 2-D array or a list of rows, with one % template per file.

    A column whose first cell is an int, float or numpy float is numeric: "%.17g" writes each
    of its cells as format(float(x), ".17g") would.  Other columns hold text, quoted as
    csv.writer quotes str(x), and lines end in \r\n, so the bytes are csv.writer's.
    """
    table = np.asarray(rows, dtype=object).reshape(len(rows), len(header))
    numeric = [isinstance(x, (int, float, np.floating)) for x in table[0]] if len(table) else []
    for j in [j for j, num in enumerate(numeric) if not num]:
        table[:, j] = [_csv_text(x, len(header) == 1) for x in table[:, j]]
    line = ",".join("%.17g" if num else "%s" for num in numeric) + "\r\n"
    head = ",".join(_csv_text(name, len(header) == 1) for name in header) + "\r\n"
    path.write_text(head + line * len(table) % tuple(table.ravel()), encoding="utf-8", newline="")
    return path


def _write_report(path: Path, lines: list[str]) -> Path:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_fields(out: Path, stem: str, grid: Grid, fields: np.ndarray, title: str,
                  ylabel: str) -> tuple[Path, Path]:
    """stem.csv with one column per component over the nodes, and its plot stem.svg."""
    comps = [f"component_{k + 1}" for k in range(len(fields))]
    csv_path = _write_csv(out / f"{stem}.csv", ["x"] + comps,
                          np.column_stack([grid.nodes, fields.T]))
    svg = svgplot.line_plot(out / f"{stem}.svg", grid.nodes, list(fields), comps, title=title,
                            xlabel="x", ylabel=ylabel)
    return csv_path, svg


def _initial_state(config: ScenarioConfig) -> State:
    kind = config.system
    spec = config.initial or {"kind": "random"}  # numbers converted by parse_config
    if spec["kind"] == "constant":
        return constant_state(kind, config.grid, spec["values"])
    if spec["kind"] == "random":
        return random_state(
            kind,
            config.grid,
            spec.get("low", 0.1),
            spec.get("high", 0.5),
            seed=spec.get("seed", config.seed),
        )
    if kind.n_components != 2:
        raise ConfigError("eigenfunction initial data is only defined for two-component systems")
    eig = principal_eigen(_eigen_problem(config))
    return eigenfunction_state(eig, spec.get("scale", 0.1))


def _eigen_problem(config: ScenarioConfig):
    coeffs = sample_coefficients(config.params, config.grid)
    if config.system is SystemKind.LOGISTIC:
        return scalar_problem(config.grid, config.params.d3, coeffs.m)
    return switching_problem(
        config.grid, config.params.d1, config.params.d2, coeffs.alpha, coeffs.beta, coeffs.m
    )


def _task_eigen(config: ScenarioConfig, out: Path) -> RunArtifacts:
    result = principal_eigen(_eigen_problem(config))
    csv_path = _write_csv(
        out / "eigen.csv",
        ["lambda", "residual", "iterations"],
        [[result.lam, result.residual, result.iterations]],
    )
    fun_path, svg = _write_fields(out, "eigenfunctions", config.grid, result.eigenfunctions,
                                  "Principal eigenfunction", "amplitude")
    report = _write_report(
        out / "report.txt",
        [
            "task: eigen",
            f"principal eigenvalue: {_fmt(result.lam)}",
            f"residual: {_fmt(result.residual)}",
            f"iterations: {result.iterations}",
            "status: OK",
        ],
    )
    return RunArtifacts([csv_path, fun_path], [svg], report, EXIT_OK)


def _trajectory_rows(log) -> np.ndarray:
    """One row [t, comp, min, max, mass] per sample and component, components 1, 2, ..."""
    samples, K = np.shape(log.mins)
    return np.column_stack([np.repeat(log.sample_times, K),
                            np.tile(np.arange(1, K + 1), samples),
                            np.ravel(log.mins), np.ravel(log.maxs), np.ravel(log.masses)])


def _task_evolve(config: ScenarioConfig, out: Path, demand_steady: bool) -> RunArtifacts:
    initial = _initial_state(config)
    result = integrate_to_steady(
        config.system, config.params, config.grid, initial, config.solver
    )
    log = result.trajectory
    traj_path = _write_csv(
        out / "trajectory.csv", ["t", "comp", "min", "max", "mass"], _trajectory_rows(log)
    )
    state_path, state_svg = _write_fields(out, "state", config.grid, result.state.components,
                                          "Final state", "density")
    comps = [f"component_{k + 1}" for k in range(config.system.n_components)]
    svgs = [
        state_svg,
        svgplot.line_plot(
            out / "trajectory.svg",
            log.times,
            [np.asarray([m[k] for m in log.masses]) for k in range(config.system.n_components)],
            comps,
            title="Component mass over time",
            xlabel="t",
            ylabel="mass",
        ),
    ]
    floor = persistence_floor(log)
    lines = [
        f"task: {'steady' if demand_steady else 'simulate'}",
        f"converged: {result.converged}",
        f"residual: {_fmt(result.residual)}",
        f"steps: {result.steps}",
        f"final time: {_fmt(result.state.t)}",
        f"persistence floor (post-transient): {_fmt(floor)}",
    ]
    status = EXIT_OK
    if demand_steady and not result.converged:
        lines.append("status: FAILED precondition 'steady state reached within t_max'")
        status = EXIT_NUMERICAL
    else:
        lines.append("status: OK")
    report = _write_report(out / "report.txt", lines)
    return RunArtifacts([traj_path, state_path], svgs, report, status)


def _task_threshold(config: ScenarioConfig, out: Path) -> RunArtifacts:
    name = config.threshold_name
    threshold = an.threshold_curve(name, config.params, config.grid,
                                   scan_points=config.scan_points)
    results = threshold.roots
    csv_path = _write_csv(
        out / "threshold.csv",
        ["name", "lo", "hi", "root", "residual"],
        [[r.name, r.bracket[0], r.bracket[1], r.root, r.residual] for r in results],
    )
    svgs = []
    if threshold.bracket is not None:
        lattice = np.linspace(*threshold.bracket, 17)
        svgs.append(
            svgplot.line_plot(
                out / "threshold_curve.svg",
                lattice,
                [[threshold.curve(x) for x in lattice]],
                ["principal eigenvalue"],
                title=f"Eigenvalue curve near {name}",
                xlabel=name.split("_")[0],
                ylabel="lambda",
            )
        )
    report = _write_report(
        out / "report.txt",
        ["task: threshold", f"name: {name}"]
        + [
            f"root: {_fmt(r.root)} in ({_fmt(r.bracket[0])}, {_fmt(r.bracket[1])}), "
            f"residual {_fmt(r.residual)}, signs {r.sign_left:+d}->{r.sign_right:+d}"
            for r in results
        ]
        + [f"root evaluations: {sum(r.evaluations for r in results)}", "status: OK"],
    )
    return RunArtifacts([csv_path], svgs, report, EXIT_OK)


def _task_sweep(config: ScenarioConfig, out: Path) -> RunArtifacts:
    report_obj = an.sweep_outcomes(
        config.params,
        config.grid,
        config.sweep_parameter,
        config.sweep_values,
        opts=config.solver,
    )
    rows = [[p.value, p.lambda_uv0, p.lambda_00w, p.outcome, *p.floors, str(p.converged),
             p.residual, p.steps] for p in report_obj.points]
    csv_path = _write_csv(
        out / "sweep.csv",
        ["value", "lambda_uv0", "lambda_00w", "outcome", "floor_u", "floor_v", "floor_w",
         "converged", "residual", "steps"],
        rows,
    )
    svg = svgplot.line_plot(
        out / "sweep.svg",
        [p.value for p in report_obj.points],
        [
            [p.lambda_uv0 for p in report_obj.points],
            [p.lambda_00w for p in report_obj.points],
        ],
        ["invasion of w", "invasion of (u,v)"],
        title=f"Semi-trivial eigenvalues vs {report_obj.parameter}",
        xlabel=report_obj.parameter,
        ylabel="lambda",
    )
    lines = [
        "task: sweep",
        f"parameter: {report_obj.parameter}",
        f"empirical C1: {report_obj.empirical_c1}",
        f"empirical C2: {report_obj.empirical_c2}",
    ]
    for p in report_obj.points:
        lines.append(
            f"value {_fmt(p.value)}: {p.outcome} (lambda_uv0 {_fmt(p.lambda_uv0)}, "
            f"lambda_00w {_fmt(p.lambda_00w)}){'; ' + p.note if p.note else ''}"
        )
    unconverged = [p for p in report_obj.points if not p.converged]
    for p in unconverged:
        lines.append(
            f"not converged: value {_fmt(p.value)} (residual {_fmt(p.residual)} "
            f"after {p.steps} steps)"
        )
    lines.append(f"status: {'PARTIAL' if unconverged else 'OK'}")
    report = _write_report(out / "report.txt", lines)
    return RunArtifacts([csv_path], [svg], report, EXIT_OK)


def _task_verify(config: ScenarioConfig, out: Path) -> RunArtifacts:
    ctx = VerifyContext(params=config.params, grid=config.grid, seed=config.seed)
    results = run_battery(ctx, groups=config.verify_groups)
    csv_path = _write_csv(
        out / "verify_results.csv",
        ["group", "check", "status", "detail"],
        [[r.group, r.name, r.status, r.detail] for r in results],
    )
    lines = ["verification report", "==================="]
    for gname in dict.fromkeys(r.group for r in results):
        lines.append("")
        lines.append(f"[{gname}]")
        for r in results:
            if r.group != gname:
                continue
            lines.append(f"  {r.status:4s} {r.name}: {r.detail}")
    lines.append("")
    n_pass = sum(1 for r in results if r.status == "PASS")
    failed = sum(1 for r in results if r.status == "FAIL")
    n_skip = sum(1 for r in results if r.status == "SKIP")
    lines.append(f"summary: {n_pass} passed, {failed} failed, {n_skip} skipped")
    report = _write_report(out / "verify_report.txt", lines)
    return RunArtifacts([csv_path], [], report, EXIT_OK if failed == 0 else EXIT_CHECK_FAILED)


# The one list of tasks: name -> task function of (config, output directory).
TASKS: dict[str, Callable[[ScenarioConfig, Path], RunArtifacts]] = {
    "eigen": _task_eigen,
    "steady": partial(_task_evolve, demand_steady=True),
    "simulate": partial(_task_evolve, demand_steady=False),
    "threshold": _task_threshold,
    "sweep": _task_sweep,
    "verify": _task_verify,
}


def _failed(config: ScenarioConfig, out: Path, status: str, exit_status: int) -> RunArtifacts:
    """The report of a task that stopped with an exception; no other files."""
    report = _write_report(out / "report.txt", [f"task: {config.task}", f"status: {status}"])
    return RunArtifacts([], [], report, exit_status)


def run_scenario(config: ScenarioConfig) -> RunArtifacts:
    """Execute the configured task, writing all artifacts to the output directory."""
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    try:
        return TASKS[config.task](config, out)
    except HypothesisError as exc:
        return _failed(config, out, f"FAILED precondition '{exc}'", EXIT_HYPOTHESIS)
    except (ConvergenceError, StepOvershootError, np.linalg.LinAlgError) as exc:
        return _failed(config, out, f"NUMERICAL FAILURE '{exc}'", EXIT_NUMERICAL)
    except (ConfigError, ValueError) as exc:
        return _failed(config, out, f"INVALID '{exc}'", EXIT_VALIDATION)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dispersal-lab",
        description=(
            "Numerical laboratory for populations switching between two diffusion "
            "rates and their competition with a single-rate diffuser."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task in TASKS:
        task_parser = sub.add_parser(task, help=f"run the {task} task from a JSON config")
        task_parser.add_argument("--config", required=True, help="path to the scenario JSON")
        task_parser.add_argument("--out", default=None, help="override the output directory")
        task_parser.add_argument("--seed", type=int, default=None, help="override the seed")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    config = replace(config, task=args.command)
    if args.out is not None:
        config = replace(config, output_dir=Path(args.out))
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    artifacts = run_scenario(config)
    if artifacts.report_path is not None:
        print(artifacts.report_path.read_text(encoding="utf-8"), end="")
    return artifacts.exit_status


if __name__ == "__main__":
    sys.exit(main())
