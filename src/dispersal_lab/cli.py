"""Batch front door: JSON scenario configs in, CSV/SVG/report files out.

Subcommands mirror the tasks in TASKS.  Exit codes: 0 success, 1 verify-check
failure, 2 validation error, 3 numerical failure, 4 hypothesis violation.
Identical config and seed produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .mesh import Grid, finite_number, float_array
from .model import (
    CoefficientSpec,
    HypothesisError,
    ModelParams,
    SystemKind,
    sample_coefficients,
)
from .dynamics import (
    NUMERICAL_FAILURES,
    SolverOptions,
    State,
    constant_state,
    eigenfunction_state,
    integrate_to_steady,
    persistence_floor,
    random_state,
)
from .spectral import (
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
    """A parsed config: parse_config fills every field from the schema tables."""

    grid: Grid
    params: ModelParams
    system: SystemKind
    task: str
    output_dir: Path
    seed: int
    solver: SolverOptions
    threshold_name: Optional[str]
    sweep_parameter: Optional[str]
    sweep_values: Optional[list[float]]
    initial: dict
    verify_groups: Optional[list[str]]


@dataclass
class RunArtifacts:
    csv_paths: list[Path]
    svg_paths: list[Path]
    report_path: Path
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
    kind, spec = config.system, config.initial  # converted, with defaults, by parse_config
    if spec["kind"] == "constant":
        return constant_state(kind, config.grid, spec["values"])
    if spec["kind"] == "random":
        seed = config.seed if spec["seed"] is None else spec["seed"]
        return random_state(kind, config.grid, spec["low"], spec["high"], seed=seed)
    return eigenfunction_state(principal_eigen(_eigen_problem(config)), spec["scale"])


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
    lines = ["task: eigen", f"principal eigenvalue: {_fmt(result.lam)}",
             f"residual: {_fmt(result.residual)}", f"iterations: {result.iterations}"]
    if result.enclosure is not None:
        lo, up = result.enclosure
        lines.append(f"stalled at the iteration cap; eigenvalue enclosure: "
                     f"[{_fmt(lo)}, {_fmt(up)}]")
    report = _write_report(out / "report.txt", lines + ["status: OK"])
    return RunArtifacts([csv_path, fun_path], [svg], report, EXIT_OK)


def _trajectory_rows(log) -> np.ndarray:
    """One row [t, comp, min, max, mass] per sample and component, components 1, 2, ..."""
    samples, K = np.shape(log.mins)
    return np.column_stack([np.repeat(log.sample_times, K),
                            np.tile(np.arange(1, K + 1), samples),
                            np.ravel(log.mins), np.ravel(log.maxs), np.ravel(log.masses)])


def _task_evolve(config: ScenarioConfig, out: Path, demand_steady: bool) -> RunArtifacts:
    result = integrate_to_steady(config.system, config.params, config.grid,
                                 _initial_state(config), config.solver)
    log = result.trajectory
    traj_path = _write_csv(
        out / "trajectory.csv", ["t", "comp", "min", "max", "mass"], _trajectory_rows(log)
    )
    state_path, state_svg = _write_fields(out, "state", config.grid, result.state.components,
                                          "Final state", "density")
    comps = [f"component_{k + 1}" for k in range(config.system.n_components)]
    mass_svg = svgplot.line_plot(out / "trajectory.svg", log.times, list(np.transpose(log.masses)),
                                 comps, title="Component mass over time", xlabel="t",
                                 ylabel="mass")
    floor = persistence_floor(log)
    lines = [
        f"task: {'steady' if demand_steady else 'simulate'}",
        f"converged: {result.converged}",
        f"residual: {_fmt(result.residual)}",
        f"steps: {result.steps}",
        f"final time: {_fmt(result.state.t)}",
        f"persistence floor (post-transient): {_fmt(floor)}",
    ]
    failed = demand_steady and not result.converged
    lines.append(f"status: NUMERICAL FAILURE 'no steady state within t_max = "
                 f"{_fmt(config.solver.t_max)}'" if failed else "status: OK")
    report = _write_report(out / "report.txt", lines)
    return RunArtifacts([traj_path, state_path], [state_svg, mass_svg], report,
                        EXIT_NUMERICAL if failed else EXIT_OK)


def _task_threshold(config: ScenarioConfig, out: Path) -> RunArtifacts:
    name = config.threshold_name
    threshold = an.threshold_curve(name, config.params, config.grid)
    results = threshold.roots
    csv_path = _write_csv(
        out / "threshold.csv",
        ["name", "lo", "hi", "root", "residual"],
        [[r.name, r.bracket[0], r.bracket[1], r.root, r.residual] for r in results],
    )
    svgs = []
    if threshold.curve is not None:  # through the points the root-find solved, in order
        xs = sorted(threshold.curve.values)
        svgs.append(svgplot.line_plot(
            out / "threshold_curve.svg", xs, [[threshold.curve.values[x] for x in xs]],
            ["principal eigenvalue"], title=f"Eigenvalue curve near {name}",
            xlabel=name.split("_")[0], ylabel="lambda"))
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
    report_obj = an.sweep_outcomes(config.params, config.grid, config.sweep_parameter,
                                   config.sweep_values, opts=config.solver)
    points = report_obj.points
    rows = [[p.value, p.lambda_uv0, p.lambda_00w, p.outcome, *p.floors, str(p.converged),
             p.residual, p.steps] for p in points]
    csv_path = _write_csv(
        out / "sweep.csv",
        ["value", "lambda_uv0", "lambda_00w", "outcome", "floor_u", "floor_v", "floor_w",
         "converged", "residual", "steps"],
        rows,
    )
    svg = svgplot.line_plot(
        out / "sweep.svg", [p.value for p in points],
        [[p.lambda_uv0 for p in points], [p.lambda_00w for p in points]],
        ["invasion of w", "invasion of (u,v)"],
        title=f"Semi-trivial eigenvalues vs {report_obj.parameter}",
        xlabel=report_obj.parameter, ylabel="lambda")
    lines = [
        "task: sweep",
        f"parameter: {report_obj.parameter}",
        f"empirical C1: {report_obj.empirical_c1}",
        f"empirical C2: {report_obj.empirical_c2}",
    ]
    lines += [f"value {_fmt(p.value)}: {p.outcome} (lambda_uv0 {_fmt(p.lambda_uv0)}, "
              f"lambda_00w {_fmt(p.lambda_00w)}){'; ' + p.note if p.note else ''}"
              for p in points]
    unconverged = [p for p in points if not p.converged]
    lines += [f"not converged: value {_fmt(p.value)} (residual {_fmt(p.residual)} "
              f"after {p.steps} steps)" for p in unconverged]
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
        lines += ["", f"[{gname}]"]
        lines += [f"  {r.status:4s} {r.name}: {r.detail}" for r in results if r.group == gname]
    count = Counter(r.status for r in results)
    lines += ["", f"summary: {count['PASS']} passed, {count['FAIL']} failed, "
                  f"{count['SKIP']} skipped"]
    report = _write_report(out / "verify_report.txt", lines)
    return RunArtifacts([csv_path], [], report, EXIT_CHECK_FAILED if count["FAIL"] else EXIT_OK)


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
    """Execute the configured task, writing all artifacts to the output directory; raises
    ConfigError if that directory cannot be created."""
    out = config.output_dir
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    try:
        return TASKS[config.task](config, out)
    except HypothesisError as exc:
        return _failed(config, out, f"FAILED precondition '{exc}'", EXIT_HYPOTHESIS)
    except NUMERICAL_FAILURES as exc:
        return _failed(config, out, f"NUMERICAL FAILURE '{exc}'", EXIT_NUMERICAL)
    except ValueError as exc:
        return _failed(config, out, f"INVALID '{exc}'", EXIT_VALIDATION)


# The config schema: one table of keys per section, which parse_config walks.
REQUIRED = object()  # the default of a key that has none


@dataclass(frozen=True)
class Key:
    """A row of a section's table.  convert takes the key's json value, or its default (None
    stays None); a given value that fails check raises ConfigError(message).  An absent REQUIRED
    key is None for a task outside tasks (task keys only); otherwise it raises
    ConfigError(message), or without a message KeyError, which the section words."""

    convert: Callable = lambda value: value
    default: object = REQUIRED
    check: Callable[[object], bool] = lambda value: True
    message: str = ""
    tasks: tuple[str, ...] = ()


def _read(data, keys: dict[str, Key], name: str, task: str = "", build: Callable = dict,
          errors: Optional[str] = None):
    """build(**values) of the keys of data, converted; errors words ("{}" is the error) a key's
    TypeError, ValueError or KeyError, and a ValueError of build is a ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} section must be an object")
    for key in data:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in the {name} section; "
                              f"known keys: {list(keys)}")
    values = {}
    for key, row in keys.items():
        try:
            if key in data:
                values[key] = row.convert(data[key])
                if not row.check(values[key]):
                    raise ConfigError(row.message)
            elif row.default is not REQUIRED:
                values[key] = None if row.default is None else row.convert(row.default)
            elif row.tasks and task not in row.tasks:
                values[key] = None
            else:
                raise ConfigError(row.message) if row.message else KeyError(key)
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError) or errors is None:
                raise
            raise ConfigError(errors.format(exc)) from exc
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


number, integer = finite_number, partial(finite_number, convert=int)
numbers = partial(finite_number, convert=float_array)


def _coefficient(name: str, spec) -> CoefficientSpec:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError(f"coefficient {name!r} must be an object with a 'kind' key")
    if spec["kind"] not in tuple(COEFFICIENTS):
        raise ConfigError(f"coefficient {name!r} has unknown kind {spec['kind']!r}")
    try:
        return _read(spec, COEFFICIENTS[spec["kind"]], f"params.{name}", build=CoefficientSpec)
    except KeyError as exc:
        raise ConfigError(f"coefficient {name!r} is missing field {exc}") from exc


def _system(tag) -> SystemKind:
    try:
        return SystemKind(tag)
    except ValueError as exc:
        raise ConfigError(f"unknown system kind {tag!r}") from exc


def _sweep_values(values) -> list[float]:
    if not isinstance(values, list) or not values:
        raise ConfigError(SWEEP_VALUES)
    values = [number(v) for v in values]
    if min(values) <= 0:  # d3, beta and alpha alike
        raise ConfigError(f"sweep values must be positive, got {values}")
    return values


def _groups(groups) -> list[str]:
    if not isinstance(groups, list):
        raise ConfigError("verify groups must be a list of group names")
    if not groups:
        raise ConfigError(f"verify groups must name at least one group; "
                          f"available: {list(CHECKERS)}")
    unknown = [gname for gname in groups if gname not in tuple(CHECKERS)]
    if unknown:
        raise ConfigError(f"unknown verify groups: {unknown}; available: {list(CHECKERS)}")
    return groups


def _initial(spec) -> dict:
    if not isinstance(spec, dict) or spec.get("kind") not in tuple(INITIAL):
        raise ConfigError("initial data kind must be constant, random, or eigenfunction")
    keys = INITIAL[spec["kind"]]
    fields = [key for key in keys if key != "kind"]
    initial = _read(spec, keys, "initial",
                    errors=f"initial data fields {fields} must be numbers: {{}}")
    if spec["kind"] == "random" and not 0 <= initial["low"] < initial["high"]:
        raise ConfigError(f"random initial data needs 0 <= low < high, "
                          f"got ({initial['low']}, {initial['high']})")
    return initial


NUMBERS = "solver settings, seed and sweep values must be numbers: {}"
TASK_NAMES = f"task must name one of {tuple(TASKS)}"
SWEEP_VALUES = "sweep task needs a non-empty list of values"
SEED = Key(integer, 0, lambda seed: seed >= 0, "a seed must be at least 0")
GRID = {"a": Key(number), "b": Key(number), "n": Key(integer)}
PARAMS = {"d1": Key(number), "d2": Key(number), "d3": Key(number, ModelParams.d3),
          "b": Key(number, ModelParams.b), "c": Key(number, ModelParams.c),
          **{name: Key(partial(_coefficient, name)) for name in ("alpha", "beta", "m")}}
KIND = Key()  # picks the table of a coefficient or of initial data, and is checked first
COEFFICIENTS = {"constant": {"kind": KIND, "value": Key(number)},
                "cosine_profile": {"kind": KIND, "mean": Key(number), "amplitude": Key(number),
                                   "frequency": Key(integer, CoefficientSpec.frequency)},
                "samples": {"kind": KIND, "values": Key(numbers)}}
# A random seed of None is the scenario's seed when the task runs, so that --seed sets it.
INITIAL = {"constant": {"kind": KIND, "values": Key(numbers, message=(
               "constant initial data needs per-component values"))},
           "random": {"kind": KIND, "low": Key(number, 0.1), "high": Key(number, 0.5),
                      "seed": replace(SEED, default=None)},
           "eigenfunction": {"kind": KIND, "scale": Key(number, 0.1, lambda scale: scale > 0,
                                                        "scale must be positive")}}
# Names are matched against tuples, so an unhashable one is rejected, not raised on.
TASK = {
    "name": Key(check=lambda name: name in tuple(TASKS), message=TASK_NAMES),
    "threshold_name": Key(check=lambda name: name in tuple(an.THRESHOLDS), tasks=("threshold",),
                          message="threshold task needs threshold_name in "
                                  f"{{{', '.join(an.THRESHOLDS)}}}"),
    "parameter": Key(check=lambda name: name in an.SWEEP_PARAMETERS, tasks=("sweep",),
                     message=f"sweep task needs parameter in {{{', '.join(an.SWEEP_PARAMETERS)}}}"),
    "values": Key(_sweep_values, tasks=("sweep",), message=SWEEP_VALUES),
    "groups": Key(_groups, None, tasks=("verify",)),
}
SOLVER = {key: Key(number, getattr(SolverOptions, key), lambda x: x > 0,
                   "solver dt, tol, t_max, sample_every must all be positive")
          for key in ("dt", "tol", "t_max", "sample_every")}
CONFIG = {
    "grid": Key(partial(_read, keys=GRID, name="grid", build=Grid,
                        errors="invalid or missing grid section: {}"),
                message="invalid or missing grid section: 'grid'"),
    "params": Key(partial(_read, keys=PARAMS, name="params", build=ModelParams,
                          errors="invalid or missing params section: {}"),
                  message="invalid or missing params section: 'params'"),
    "system": Key(_system, SystemKind.SUBMODEL.value),
    # parse_config reads the task section, for the task that runs.
    "task": Key(lambda spec: {"name": spec} if isinstance(spec, str) else spec,
                check=lambda spec: isinstance(spec, dict), message=TASK_NAMES),
    "solver": Key(partial(_read, keys=SOLVER, name="solver", build=SolverOptions,
                          errors=NUMBERS), {}),
    "initial": Key(_initial, {"kind": "random"}),
    "output": Key(default="out", check=lambda path: isinstance(path, str),
                  message="output must be a path"),
    "seed": SEED,
}
# Every table by the section it reads, as README's config reference lists them.
SCHEMA = {"top level": CONFIG, "grid": GRID, "params": PARAMS, "task": TASK, "solver": SOLVER,
          **{f"coefficient {kind}": keys for kind, keys in COEFFICIENTS.items()},
          **{f"initial {kind}": keys for kind, keys in INITIAL.items()}}


def parse_config(data: dict, base_dir: Path = Path("."),
                 task: Optional[str] = None) -> ScenarioConfig:
    """The scenario of a json config, checked for the task that runs (by default the config's
    own).  Raises ConfigError for a config the schema rejects."""
    top = _read(data, CONFIG, "top-level", errors=NUMBERS)
    try:  # one value per node, rates nonnegative, each field positive somewhere
        sample_coefficients(top["params"], top["grid"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    task = task or top["task"].get("name")
    spec = _read(top["task"], TASK, "task", task, errors=NUMBERS)
    initial, system = top["initial"], top["system"]
    if task in ("steady", "simulate"):
        if initial["kind"] == "constant" and np.shape(initial["values"]) != (system.n_components,):
            raise ConfigError(f"constant initial data needs per-component values: "
                              f"{system.n_components} for the {system.value} system")
        if initial["kind"] == "eigenfunction" and system.n_components != 2:
            raise ConfigError("eigenfunction initial data is only defined for two-component "
                              "systems")
    return ScenarioConfig(
        grid=top["grid"], params=top["params"], system=system, task=task,
        output_dir=base_dir / top["output"], seed=top["seed"], solver=top["solver"],
        threshold_name=spec["threshold_name"], sweep_parameter=spec["parameter"],
        sweep_values=spec["values"], initial=initial, verify_groups=spec["groups"])


def load_config(path: str | Path, task: Optional[str] = None) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(data, path.parent, task)


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
        config = load_config(args.config, args.command)
        if args.seed is not None and not SEED.check(args.seed):
            raise ConfigError(SEED.message)
        if args.out is not None:
            config = replace(config, output_dir=Path(args.out))
        if args.seed is not None:
            config = replace(config, seed=args.seed)
        artifacts = run_scenario(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(artifacts.report_path.read_text(encoding="utf-8"), end="")
    return artifacts.exit_status


if __name__ == "__main__":
    sys.exit(main())
