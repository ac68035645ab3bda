import contextlib
import io
import json
import math
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import numpy as np
from dispersal_lab.cli import (
    COEFFICIENTS,
    CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_HYPOTHESIS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    GRID,
    INITIAL,
    PARAMS,
    REQUIRED,
    SCHEMA,
    SOLVER,
    TASK,
    TASKS,
    ConfigError,
    integer,
    load_config,
    main,
    number,
    numbers,
    parse_config,
    run_scenario,
    _fmt,
)
from dispersal_lab.mesh import build_grid
from dispersal_lab.spectral import scalar_eigenvalue
from dispersal_lab.model import CoefficientSpec, ModelParams, SystemKind, sample_coefficients
from dispersal_lab.analysis import SWEEP_PARAMETERS, THRESHOLDS, find_threshold, subsystem_steady
from dispersal_lab.verify import CHECKERS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
THRESHOLD_NAME = ("threshold task needs threshold_name in "
                  "{d_c, d_0, beta_c, alpha_c, mu_star, mu_zero}")


def base_config(tmp_path: Path, **overrides) -> dict:
    data = {
        "grid": {"a": 0.0, "b": 1.0, "n": 101},
        "params": {
            "d1": 0.1,
            "d2": 1.0,
            "d3": 0.4,
            "alpha": {"kind": "constant", "value": 1.0},
            "beta": {"kind": "constant", "value": 1.0},
            "m": {"kind": "cosine_profile", "mean": 0.4, "amplitude": 0.3, "frequency": 1},
        },
        "system": "submodel",
        "task": {"name": "eigen"},
        "output": str(tmp_path / "out"),
        "seed": 7,
    }
    data.update(overrides)
    return data


def write_config(tmp_path: Path, data: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_parse_rejects_missing_grid(tmp_path):
    data = base_config(tmp_path)
    del data["grid"]
    with pytest.raises(ConfigError):
        parse_config(data)


def test_parse_rejects_bad_task(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(base_config(tmp_path, task={"name": "explode"}))


def test_parse_rejects_bad_threshold_name(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(base_config(tmp_path, task={"name": "threshold", "threshold_name": "zeta"}))


def test_name_of_threshold_alias_is_rejected(tmp_path):
    data = base_config(tmp_path, task={"name": "threshold", "name_of_threshold": "d_c"})
    path = write_config(tmp_path, data)
    assert main(["threshold", "--config", str(path)]) == EXIT_VALIDATION


@pytest.mark.parametrize("name,solver", [("d_c", "subsystem_steady"),
                                         ("beta_c", "logistic_steady")])
def test_threshold_task_solves_its_steady_state_once(tmp_path, monkeypatch, name, solver):
    import dispersal_lab.analysis as analysis_mod

    calls = []
    original = getattr(analysis_mod, solver)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(analysis_mod, solver, counted)
    data = base_config(tmp_path, task={"name": "threshold", "threshold_name": name})
    artifacts = run_scenario(parse_config(data))
    assert artifacts.exit_status == EXIT_OK
    assert (tmp_path / "out" / "threshold_curve.svg").is_file()
    assert len(calls) == 1


def threshold_dc_task(tmp_path, monkeypatch, name, n=None):
    """The threshold task of configs/threshold_dc.json for name, on n nodes if n is given:
    the curve that analysis.threshold_curve built, and the principal_eigen calls made
    before it returned and after."""
    import dispersal_lab.analysis as analysis_mod
    import dispersal_lab.spectral as spectral_mod

    calls, built = [], []
    solve, build = spectral_mod.principal_eigen, analysis_mod.threshold_curve

    def counted_solve(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    def counted_build(*args, **kwargs):
        built.append((build(*args, **kwargs), len(calls)))
        return built[-1][0]

    monkeypatch.setattr(spectral_mod, "principal_eigen", counted_solve)
    monkeypatch.setattr(analysis_mod, "threshold_curve", counted_build)
    data = json.loads((CONFIGS / "threshold_dc.json").read_text(encoding="utf-8"))
    data["task"]["threshold_name"] = name
    data["output"] = str(tmp_path / "out")
    if n is not None:
        data["grid"]["n"] = n
    assert run_scenario(parse_config(data)).exit_status == EXIT_OK
    ((threshold, before),) = built
    return threshold, before, len(calls) - before


def test_threshold_task_solves_no_eigenproblem_of_its_own(tmp_path, monkeypatch):
    threshold, before, after = threshold_dc_task(tmp_path, monkeypatch, "d_c")
    assert after == 0
    assert before == len(threshold.curve.values) > 0


@pytest.mark.parametrize("name", ["d_c", "beta_c", "alpha_c"])
def test_threshold_plot_draws_each_evaluated_point_once(tmp_path, monkeypatch, name):
    threshold, _, _ = threshold_dc_task(tmp_path, monkeypatch, name)
    svg = (tmp_path / "out" / "threshold_curve.svg").read_text(encoding="utf-8")
    (points,) = [line.split('points="')[1].split('"')[0] for line in svg.splitlines()
                 if line.startswith("<polyline")]
    assert len(points.split()) == len(threshold.curve.values)
    lo, hi = threshold.roots[0].bracket
    assert min(threshold.curve.values) == lo and max(threshold.curve.values) == hi


def test_eigen_task_reports_the_enclosure_of_a_stalled_solve(tmp_path):
    # At n = 1601 this pair's residual stalls just above its floor.
    data = base_config(tmp_path, grid={"a": 0.0, "b": 1.0, "n": 1601})
    data["params"].update(
        alpha={"kind": "cosine_profile", "mean": 1.0, "amplitude": 0.5, "frequency": 1},
        beta={"kind": "constant", "value": 0.8},
        m={"kind": "cosine_profile", "mean": 0.0, "amplitude": 1.0, "frequency": 2})
    assert run_scenario(parse_config(data)).exit_status == EXIT_OK
    lines = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8").splitlines()
    (stalled,) = [line for line in lines if line.startswith("stalled")]
    lo, up = (float(x) for x in stalled.split("[")[1].rstrip("]").split(", "))
    lam = float(lines[1].split(": ")[1])
    assert lo <= lam <= up and up - lo < 1e-6
    data = base_config(tmp_path)
    run_scenario(parse_config(data))
    assert "stalled" not in (tmp_path / "out" / "report.txt").read_text(encoding="utf-8")


def test_threshold_task_reports_the_enclosure_of_each_stalled_point(tmp_path, monkeypatch):
    # At n = 801 the solve at beta_c's lower bracket end, beta = 2e-4, stalls and stops at
    # the iteration cap on an enclosure; every other point of the curve converges.
    threshold, _, _ = threshold_dc_task(tmp_path, monkeypatch, "beta_c", n=801)
    ((x, (lo, up)),) = threshold.curve.enclosures.items()
    assert x == threshold.roots[0].bracket[0] and lo <= threshold.curve.values[x] <= up
    lines = (tmp_path / "out" / "report.txt").read_text(encoding="utf-8").splitlines()
    assert lines[-2:] == [f"beta = {_fmt(x)} stalled at the iteration cap; eigenvalue "
                          f"enclosure: [{_fmt(lo)}, {_fmt(up)}]", "status: OK"]


def test_parse_rejects_empty_sweep(tmp_path):
    with pytest.raises(ConfigError):
        parse_config(base_config(tmp_path, task={"name": "sweep", "parameter": "d3", "values": []}))


def test_eigen_task_constant_coefficients(tmp_path):
    data = base_config(tmp_path)
    data["params"]["m"] = {"kind": "constant", "value": 0.8}
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_OK
    rows = (tmp_path / "out" / "eigen.csv").read_text().strip().splitlines()
    assert rows[0] == "lambda,residual,iterations"
    lam = float(rows[1].split(",")[0])
    assert abs(lam - 0.8) < 1e-8


def test_csv_floats_have_full_precision(tmp_path):
    config = parse_config(base_config(tmp_path))
    run_scenario(config)
    row = (tmp_path / "out" / "eigen.csv").read_text().strip().splitlines()[1]
    lam_text = row.split(",")[0]
    assert float(lam_text) == float(format(float(lam_text), ".17g"))
    assert len(lam_text.replace("-", "").replace(".", "").lstrip("0")) >= 15


def test_threshold_task_cross_checked_against_plain_bisection(tmp_path):
    data = base_config(tmp_path, task={"name": "threshold", "threshold_name": "d_c"})
    data["grid"]["n"] = 201
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_OK
    row = (tmp_path / "out" / "threshold.csv").read_text().strip().splitlines()[1].split(",")
    root = float(row[3])

    # Independent oracle: plain interval halving on the same eigenvalue curve.
    grid = build_grid(0, 1, 201)
    params = ModelParams(
        d1=0.1, d2=1.0, d3=0.4,
        alpha=CoefficientSpec.constant(1.0),
        beta=CoefficientSpec.constant(1.0),
        m=CoefficientSpec.cosine(0.4, 0.3, 1),
    )
    coeffs = sample_coefficients(params, grid)
    u, v = subsystem_steady(params, grid).state.components
    pot = coeffs.m - u - v
    lo, hi = 0.1, 0.55
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if scalar_eigenvalue(grid, mid, pot).lam > 0:
            lo = mid
        else:
            hi = mid
    assert abs(root - 0.5 * (lo + hi)) < 1e-6
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    evaluations = find_threshold("d_c", params, grid).evaluations
    assert report[-2:] == [f"root evaluations: {evaluations}", "status: OK"]


def test_steady_task_nonconvergence_is_numerical_failure(tmp_path):
    data = base_config(tmp_path, task={"name": "steady"})
    data["solver"] = {"dt": 0.01, "t_max": 0.05}
    data["initial"] = {"kind": "constant", "values": [0.2, 0.2]}
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_NUMERICAL
    last = artifacts.report_path.read_text().splitlines()[-1]
    assert last == "status: NUMERICAL FAILURE 'no steady state within t_max = 0.050000000000000003'"


def test_steady_state_outside_the_contracting_box_is_numerical_failure(tmp_path):
    # At tol = 1000 the start (5, 5) counts as converged, but it lies outside
    # [0, max beta] x [0, max alpha] = [0, 1]^2.
    data = json.loads((CONFIGS / "reference.json").read_text())
    data.update(task={"name": "steady"}, solver={"dt": 0.01, "tol": 1000, "t_max": 10},
                initial={"kind": "constant", "values": [5, 5]}, output=str(tmp_path / "out"))
    assert main(["steady", "--config", str(write_config(tmp_path, data))]) == EXIT_NUMERICAL
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "status: NUMERICAL FAILURE '" in report and "contracting box" in report


def test_hypothesis_violation_exit_code(tmp_path):
    data = base_config(tmp_path, task={"name": "threshold", "threshold_name": "d_c"})
    data["params"]["m"] = {"kind": "constant", "value": 3.0}
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_HYPOTHESIS
    assert "precondition" in artifacts.report_path.read_text()


def test_verify_skips_sections_when_hypothesis_fails(tmp_path):
    data = base_config(
        tmp_path,
        task={"name": "verify", "groups": ["mesh-order", "invasion-brackets"]},
    )
    data["params"]["m"] = {"kind": "constant", "value": 3.0}
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_OK
    text = artifacts.report_path.read_text()
    assert "SKIP" in text and "PASS" in text


def test_verify_reports_failures_with_exit_one(tmp_path, monkeypatch):
    import dispersal_lab.verify as verify_mod

    def always_fail(ctx):
        return [("forced", False, "forced failure")]

    monkeypatch.setitem(verify_mod.CHECKERS, "mesh-order", always_fail)
    data = base_config(tmp_path, task={"name": "verify", "groups": ["mesh-order"]})
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_CHECK_FAILED


@pytest.mark.parametrize("groups,message", [
    ("mesh-order", "verify groups must be a list of group names"),
    (["zeta"], f"unknown verify groups: ['zeta']; available: {list(CHECKERS)}"),
    ([], f"verify groups must name at least one group; available: {list(CHECKERS)}"),
], ids=["not_a_list", "unknown_name", "empty_list"])
def test_verify_groups_that_name_no_group_exit_with_validation_code(tmp_path, groups, message):
    data = base_config(tmp_path, task={"name": "verify", "groups": groups})
    with pytest.raises(ConfigError) as exc:
        parse_config(data)
    assert str(exc.value) == message
    assert main(["verify", "--config", str(write_config(tmp_path, data))]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()


def test_cli_main_validation_exit(tmp_path):
    data = base_config(tmp_path)
    data["grid"]["n"] = 2
    path = write_config(tmp_path, data)
    assert main(["eigen", "--config", str(path)]) == EXIT_VALIDATION


def test_simulate_outputs_trajectory(tmp_path):
    data = base_config(tmp_path, task={"name": "simulate"})
    data["solver"] = {"dt": 0.01, "t_max": 2.0, "sample_every": 0.5}
    data["initial"] = {"kind": "random", "low": 0.1, "high": 0.3}
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_OK
    lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
    assert lines[0] == "t,comp,min,max,mass"
    assert len(lines) > 4
    assert (tmp_path / "out" / "trajectory.svg").exists()


def test_same_seed_gives_identical_bytes(tmp_path):
    for sub in ("a", "b"):
        data = base_config(tmp_path, task={"name": "simulate"})
        data["solver"] = {"dt": 0.01, "t_max": 2.0, "sample_every": 0.5}
        data["initial"] = {"kind": "random", "low": 0.1, "high": 0.3}
        data["output"] = str(tmp_path / sub)
        run_scenario(parse_config(data))
    for name in ("trajectory.csv", "state.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_sweep_task_writes_schema(tmp_path):
    data = base_config(
        tmp_path,
        task={"name": "sweep", "parameter": "d3", "values": [0.05, 1.5]},
    )
    data["grid"]["n"] = 61
    data["solver"] = {"dt": 0.05, "t_max": 400.0, "sample_every": 10.0}
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_OK
    lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == (
        "value,lambda_uv0,lambda_00w,outcome,floor_u,floor_v,floor_w,converged,residual,steps"
    )
    assert len(lines) == 3
    assert (tmp_path / "out" / "sweep.svg").exists()


def test_sweep_task_flags_unconverged_points(tmp_path):
    data = base_config(
        tmp_path,
        task={"name": "sweep", "parameter": "d3", "values": [0.05, 1.5]},
    )
    data["grid"]["n"] = 61
    data["solver"] = {"dt": 0.05, "t_max": 1.0, "sample_every": 10.0}
    artifacts = run_scenario(parse_config(data))
    assert artifacts.exit_status == EXIT_OK
    rows = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
    for row in rows[1:]:
        converged, residual, steps = row.split(",")[-3:]
        assert converged == "False"
        assert float(residual) > 1e-9
        assert steps == "20"
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert report[-1] == "status: PARTIAL"
    flagged = [line for line in report if line.startswith("not converged: value ")]
    assert len(flagged) == 2


def test_mu_zero_threshold_task(tmp_path):
    data = base_config(tmp_path, task={"name": "threshold", "threshold_name": "mu_zero"})
    data["params"]["m"] = {
        "kind": "cosine_profile", "mean": -0.15, "amplitude": 1.0, "frequency": 2,
    }
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_OK
    rows = (tmp_path / "out" / "threshold.csv").read_text().strip().splitlines()
    assert rows[0] == "name,lo,hi,root,residual"
    assert rows[1].startswith("mu_zero,")


def test_mu_star_needs_negative_mean_growth(tmp_path):
    data = base_config(tmp_path, task={"name": "threshold", "threshold_name": "mu_star"})
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_HYPOTHESIS


@pytest.mark.parametrize("overrides", [
    {"initial": {"kind": "constant"}},  # no values: a KeyError out of run_scenario
    {"solver": {"sample_every": 0}},  # the sampling loop would never advance
], ids=["constant_initial_without_values", "sample_every_zero"])
def test_malformed_config_is_a_validation_error(tmp_path, overrides):
    data = base_config(tmp_path, task={"name": "steady"}, **overrides)
    with pytest.raises(ConfigError):
        parse_config(data)
    assert main(["steady", "--config", str(write_config(tmp_path, data))]) == EXIT_VALIDATION


# Property tests: few examples each, since every one parses a config or runs main.
PROPERTY = settings(max_examples=30, deadline=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])
finite = lambda lo, hi: st.floats(lo, hi, allow_nan=False, allow_infinity=False)
SECTION = None  # a key whose value is a section, drawn as its own table

# A strategy of valid values for every key of every schema table, by table label.  Values that
# depend on another key are fixed in valid_configs: grid b = a + width, d2 = d1 * factor, samples
# repeat to one value per node, a cosine rate's mean is at least its amplitude, m is positive
# somewhere, and a constant initial state has one value per component.
VALID = {
    "top level": {"grid": SECTION, "params": SECTION, "task": SECTION, "solver": SECTION,
                  "initial": SECTION, "system": st.sampled_from([k.value for k in SystemKind]),
                  "output": st.just("out"), "seed": st.integers(0, 2**31)},
    "grid": {"a": finite(-2.0, 1.0), "b": finite(0.1, 3.0), "n": st.integers(3, 2001)},
    "params": {"d1": finite(0.01, 1.0), "d2": finite(1.0, 20.0), "d3": finite(0.01, 5.0),
               "b": finite(0.0, 3.0), "c": finite(0.0, 3.0),
               "alpha": SECTION, "beta": SECTION, "m": SECTION},
    "task": {"name": SECTION, "threshold_name": st.sampled_from(list(THRESHOLDS)),
             "parameter": st.sampled_from(list(SWEEP_PARAMETERS)),
             "values": st.lists(finite(0.01, 5.0), min_size=1, max_size=4),
             "groups": st.lists(st.sampled_from(list(CHECKERS)), min_size=1, max_size=3,
                                unique=True)},
    "solver": {"dt": finite(1e-4, 1.0), "tol": finite(1e-12, 1e-3), "t_max": finite(1.0, 1e4),
               "sample_every": finite(0.1, 10.0)},
    "coefficient constant": {"kind": SECTION, "value": finite(0.1, 3.0)},
    "coefficient cosine_profile": {"kind": SECTION, "mean": finite(-1.0, 1.0),
                                   "amplitude": finite(0.0, 1.0), "frequency": st.integers(1, 4)},
    "coefficient samples": {"kind": SECTION,
                            "values": st.lists(finite(0.1, 3.0), min_size=1, max_size=4)},
    "initial constant": {"kind": SECTION, "values": st.just([0.2])},
    "initial random": {"kind": SECTION, "low": finite(0.0, 0.29), "high": finite(0.3, 1.0),
                       "seed": st.integers(0, 2**31)},
    "initial eigenfunction": {"kind": SECTION, "scale": finite(0.01, 1.0)},
}


def test_every_schema_key_has_a_valid_strategy():
    assert {label: set(keys) for label, keys in VALID.items()} == {
        label: set(table) for label, table in SCHEMA.items()}


@st.composite
def valid_configs(draw, tasks=tuple(TASKS)):
    """Configs that parse: every required key of the schema, each optional one or not."""
    def section(label: str, **given) -> dict:
        for key, row in SCHEMA[label].items():
            wanted = row.default is REQUIRED and not row.tasks or draw(st.booleans())
            if key not in given and VALID[label][key] is not SECTION and wanted:
                given[key] = draw(VALID[label][key])
        return given

    def coefficient(n: int, rate: bool) -> dict:
        kind = draw(st.sampled_from(list(COEFFICIENTS)))
        spec = section(f"coefficient {kind}", kind=kind)
        if kind == "samples":
            spec["values"] = np.resize(spec["values"], n).tolist()
        if kind == "cosine_profile":  # rates >= 0, and each field positive somewhere
            amplitude = spec["amplitude"]
            spec["mean"] = max(spec["mean"], max(amplitude, 0.01) if rate else 0.01 - amplitude)
        return spec

    system = draw(VALID["top level"]["system"])
    task = draw(st.sampled_from(list(tasks)))
    grid = section("grid")
    data = section("top level", system=system, grid=grid, solver=section("solver"),
                   params=section("params", alpha=coefficient(grid["n"], rate=True),
                                  beta=coefficient(grid["n"], rate=True),
                                  m=coefficient(grid["n"], rate=False)),
                   task=section("task", name=task, **{
                       key: draw(VALID["task"][key]) for key, row in TASK.items()
                       if task in row.tasks and row.default is REQUIRED}))
    data["grid"]["b"] += data["grid"]["a"]
    data["params"]["d2"] *= data["params"]["d1"]
    n_components = SystemKind(system).n_components
    kinds = [kind for kind in INITIAL if kind != "eigenfunction" or n_components == 2
             or task not in ("steady", "simulate")]
    if draw(st.booleans()):
        kind = draw(st.sampled_from(kinds))
        data["initial"] = section(f"initial {kind}", kind=kind)
        if "values" in data["initial"]:
            data["initial"]["values"] = [0.2] * n_components
    return data


@PROPERTY
@given(data=valid_configs())
def test_valid_configs_round_trip(data):
    """Every key of every table reads back as drawn, or as its default when absent."""
    config = parse_config(data, base_dir=Path("base"))
    task = {"name": config.task, "threshold_name": config.threshold_name,
            "parameter": config.sweep_parameter, "values": config.sweep_values,
            "groups": config.verify_groups}
    top = {"system": config.system.value, "output": str(config.output_dir.relative_to("base")),
           "seed": config.seed}
    initial = data.get("initial", {"kind": "random"})
    tables = [(CONFIG, data, top), (GRID, data["grid"], vars(config.grid)),
              (PARAMS, data["params"], vars(config.params)), (TASK, data["task"], task),
              (SOLVER, data["solver"], vars(config.solver)),
              (INITIAL[initial["kind"]], initial, config.initial)]
    tables += [(COEFFICIENTS[data["params"][name]["kind"]], data["params"][name],
                vars(getattr(config.params, name))) for name in ("alpha", "beta", "m")]
    for table, drawn, parsed in tables:
        for key, row in table.items():
            expected = drawn.get(key, None if row.default is REQUIRED else row.default)
            if isinstance(expected, list):
                assert np.array_equal(parsed[key], expected), key
            elif not isinstance(expected, dict):  # a dict is a section, read as its own table
                assert parsed[key] == expected, key


def converts(convert, value):
    """Whether convert(value) is a finite number that parse_config takes: no boolean, and no
    float that int() would truncate."""
    try:
        number = convert(value)
    except (TypeError, ValueError, OverflowError):
        return False
    if isinstance(value, bool) or convert is int and isinstance(value, float) and number != value:
        return False
    return isinstance(number, int) or math.isfinite(number)


# Mostly values that float() and int() cannot convert: text, lists, objects, null.
junk = st.one_of(st.text(max_size=6), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2), st.none())
# json writes these as NaN, Infinity and -Infinity, and Python's json reads them back.
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
# "table.key" of every number key of the schema, and sweep values, with its converter.
NUMBER_KEYS = {f"{label}.{key}": row.convert for label, table in SCHEMA.items()
               for key, row in table.items() if row.convert in (number, integer, numbers)}
NUMBER_KEYS["task.values"] = number
# A valid example of each kind of coefficient and of initial data.
KIND_EXAMPLES = {"constant": {"value": 0.4}, "cosine_profile": {"mean": 0.4, "amplitude": 0.3},
                 "samples": {"values": [0.4] * 101}}


def with_number(data: dict, field: str, value) -> dict:
    """data with value at field, a key of NUMBER_KEYS; in a list of numbers, as its last one."""
    label, key = field.rsplit(".", 1)
    if NUMBER_KEYS[field] is numbers or field == "task.values":
        value = {"initial constant": [0.2], "task": [0.1]}.get(label, [0.4] * 100) + [value]
    if label == "top level":
        data[key] = value
    elif label in ("grid", "params"):
        data[label][key] = value
    elif label == "solver":
        data["solver"] = {key: value}
    elif label == "task":
        data["task"] = {"name": "sweep", "parameter": "d3", "values": value}
    elif label.startswith("coefficient "):
        kind = label.split()[1]
        data["params"]["m"] = {"kind": kind, **KIND_EXAMPLES[kind], key: value}
    else:
        data["initial"] = {"kind": label.split()[1], key: value}
    return data


@PROPERTY
@given(field=st.sampled_from(sorted(NUMBER_KEYS)),
       value=st.one_of(junk, non_finite, st.booleans(), finite(-1e3, 1e3)))
@example(field="solver.dt", value="abc")
@example(field="top level.seed", value="x")
@example(field="task.values", value="a")
@example(field="initial random.seed", value=None)
@example(field="initial random.low", value=[1])
@example(field="initial random.high", value="x")
@example(field="initial eigenfunction.scale", value={})
@example(field="solver.t_max", value=math.inf)
@example(field="coefficient cosine_profile.frequency", value=math.inf)
@example(field="grid.n", value=math.inf)
@example(field="initial random.high", value=math.inf)
@example(field="solver.tol", value=math.inf)
@example(field="params.d3", value=math.inf)
@example(field="solver.sample_every", value=math.inf)
@example(field="solver.dt", value=math.inf)
@example(field="task.values", value=math.inf)
@example(field="params.b", value=math.inf)
@example(field="coefficient constant.value", value=math.nan)
@example(field="grid.a", value=-math.inf)
@example(field="coefficient samples.values", value=math.nan)
@example(field="initial constant.values", value=-math.inf)
@example(field="params.d2", value=10**400)
# Integer keys take no fraction and no boolean, which int() truncated to 1, 3, 201, 2, 1.
@example(field="coefficient cosine_profile.frequency", value=1.9)
@example(field="top level.seed", value=3.7)
@example(field="grid.n", value=201.6)
@example(field="initial random.seed", value=2.5)
@example(field="grid.n", value=1.5)
@example(field="top level.seed", value=True)
@example(field="grid.n", value=True)
# Nor does any number key take a boolean.
@example(field="params.d1", value=True)
@example(field="solver.dt", value=True)
@example(field="initial constant.values", value=False)
def test_malformed_number_exits_with_validation_code(tmp_path, field, value):
    """Numbers that do not convert, and non-finite ones, exit 2 before any task runs."""
    assume(not converts(NUMBER_KEYS[field] is integer and int or float, value))
    data = with_number(base_config(tmp_path), field, value)
    path = write_config(tmp_path, data)
    assert main([data["task"]["name"], "--config", str(path)]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()


# Numbers that convert but break a rule of their own key, or of initial data, exit 2 before any
# task runs too.  The command is the config's task: simulate, the one that reads the initial
# data and the seed, or sweep.
def rejected(tmp_path, capsys, data: dict, message: str, *args: str) -> None:
    capsys.readouterr()
    path = write_config(tmp_path, data)
    assert main([data["task"]["name"], "--config", str(path), *args]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"error: {message}\n"


@PROPERTY
@given(field=st.sampled_from(["top level.seed", "initial random.seed", "--seed"]),
       seed=st.integers(max_value=-1))
@example(field="top level.seed", seed=-3)
@example(field="--seed", seed=-1)
def test_negative_seed_exits_with_validation_code(tmp_path, capsys, field, seed):
    data = base_config(tmp_path, task={"name": "simulate"})
    args = ["--seed", str(seed)] if field == "--seed" else []
    if not args:
        with_number(data, field, seed)
    rejected(tmp_path, capsys, data, "a seed must be at least 0", *args)


@PROPERTY
@given(low=st.none() | finite(-1e3, 1e3), high=st.none() | finite(-1e3, 1e3))
@example(low=0.6, high=None)  # above the default high
@example(low=None, high=0.05)  # below the default low
@example(low=0.3, high=0.3)
@example(low=-0.1, high=0.5)
def test_random_initial_data_outside_its_range_exits_with_validation_code(tmp_path, capsys,
                                                                         low, high):
    given = {key: value for key, value in (("low", low), ("high", high)) if value is not None}
    low, high = (given.get(key, INITIAL["random"][key].default) for key in ("low", "high"))
    assume(not 0 <= low < high)
    data = base_config(tmp_path, task={"name": "simulate"}, initial={"kind": "random", **given})
    rejected(tmp_path, capsys, data,
             f"random initial data needs 0 <= low < high, got ({low}, {high})")


@PROPERTY
@given(scale=finite(-1e3, 0.0))
@example(scale=0.0)
@example(scale=-1.0)
def test_nonpositive_eigenfunction_scale_exits_with_validation_code(tmp_path, capsys, scale):
    data = base_config(tmp_path, task={"name": "simulate"},
                       initial={"kind": "eigenfunction", "scale": scale})
    rejected(tmp_path, capsys, data, "scale must be positive")


@PROPERTY
@given(parameter=st.sampled_from(list(SWEEP_PARAMETERS)),
       values=st.lists(finite(-1e3, 1e3), max_size=3), bad=finite(-1e3, 0.0),
       at=st.integers(0, 3))
@example(parameter="d3", values=[], bad=-0.5, at=0)
@example(parameter="beta", values=[0.5, 1.0], bad=0.0, at=1)
@example(parameter="alpha", values=[0.2], bad=-1e-300, at=1)
def test_nonpositive_sweep_value_exits_with_validation_code(tmp_path, capsys, parameter, values,
                                                             bad, at):
    values = values[:at] + [bad] + values[at:]
    data = base_config(tmp_path, task={"name": "sweep", "parameter": parameter, "values": values})
    rejected(tmp_path, capsys, data, f"sweep values must be positive, got {values}")


@pytest.mark.parametrize("source", ["--out", "output"])
@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under_file"])
def test_output_directory_that_cannot_be_created_exits_with_validation_code(tmp_path, capsys,
                                                                            source, below):
    taken = tmp_path / "taken"
    taken.write_text("a file\n", encoding="utf-8")
    out = taken / below
    data = base_config(tmp_path, **({"output": str(out)} if source == "output" else {}))
    args = ["--out", str(out)] if source == "--out" else []
    capsys.readouterr()
    assert main(["eigen", "--config", str(write_config(tmp_path, data)), *args]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: ") and err.count("\n") == 1
    assert taken.read_text(encoding="utf-8") == "a file\n"
    assert not (tmp_path / "out").exists()


def test_integral_float_reads_as_an_integer(tmp_path):
    data = base_config(tmp_path, grid={"a": 0.0, "b": 1.0, "n": 101.0}, seed=7.0)
    config = parse_config(data)
    assert (config.grid.n, config.seed) == (101, 7)
    assert type(config.grid.n) is int and type(config.seed) is int
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 101.5)
    with pytest.raises(ValueError):
        CoefficientSpec.cosine(0.4, 0.3, True)


# Every dict of a valid config can be given a key that no table names.
unknown_keys = st.text(string.ascii_letters + "_", min_size=1, max_size=12).filter(
    lambda key: all(key not in table for table in SCHEMA.values()))


def sections_of(data: dict) -> list[dict]:
    return [data] + [s for value in data.values() if isinstance(value, dict)
                     for s in sections_of(value)]


@PROPERTY
@given(data=valid_configs(), choice=st.data(), key=unknown_keys)
def test_unknown_key_at_any_level_exits_with_validation_code(tmp_path, capsys, data, choice,
                                                             key):
    choice.draw(st.sampled_from(sections_of(data)))[key] = 1.0
    data["output"] = str(tmp_path / "out")
    capsys.readouterr()
    path = write_config(tmp_path, data)
    assert main([data["task"]["name"], "--config", str(path)]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()
    assert f"unknown key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("where,key,name,table", [
    ("solver", "tmax", "solver", SOLVER),
    ("solver", "store_fields", "solver", SOLVER),  # a field of SolverOptions, not a config key
    ("params", "D3", "params", PARAMS),
    (None, "outputs", "top-level", CONFIG),
    ("grid", "N", "grid", GRID),
    ("alpha", "mean", "params.alpha", COEFFICIENTS["constant"]),
    ("task", "name_of_threshold", "task", TASK),
    ("initial", "sed", "initial", INITIAL["random"]),
])
def test_unknown_key_in_each_section_exits_with_validation_code(tmp_path, capsys, where, key,
                                                                name, table):
    data = base_config(tmp_path, solver={}, initial={"kind": "random"})
    section = {None: data, "alpha": data["params"]["alpha"]}.get(where) or data[where]
    section[key] = 1.0
    assert main(["eigen", "--config", str(write_config(tmp_path, data))]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == (
        f"error: unknown key {key!r} in the {name} section; known keys: {list(table)}\n")


@pytest.mark.parametrize("config,command,message", [
    ("reference.json", "threshold", THRESHOLD_NAME),
    ("sweep_d3.json", "threshold", THRESHOLD_NAME),
    ("reference.json", "sweep", "sweep task needs parameter in {d3, beta, alpha}"),
    ("threshold_dc.json", "sweep", "sweep task needs parameter in {d3, beta, alpha}"),
])
def test_subcommand_checks_the_config_for_its_own_task(tmp_path, capsys, config, command,
                                                       message):
    data = json.loads((CONFIGS / config).read_text(encoding="utf-8"))
    data["output"] = str(tmp_path / "out")
    assert main([command, "--config", str(write_config(tmp_path, data))]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()
    assert capsys.readouterr().err == f"error: {message}\n"


def test_sweep_values_are_checked_when_the_config_names_another_task(tmp_path):
    data = base_config(tmp_path, task={"name": "eigen", "parameter": "d3",
                                       "values": [0.1, math.nan]})
    assert main(["sweep", "--config", str(write_config(tmp_path, data))]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("system,initial", [
    ("submodel", {"kind": "constant", "values": [0.2, 0.2, 0.2]}),
    ("logistic", {"kind": "constant", "values": [0.2, 0.2]}),
    ("three_component", {"kind": "constant", "values": 0.2}),
    ("logistic", {"kind": "eigenfunction"}),
    ("three_component", {"kind": "eigenfunction", "scale": 0.2}),
])
def test_initial_data_that_does_not_fit_the_system_is_rejected_by_steady_and_simulate(
        tmp_path, system, initial):
    data = base_config(tmp_path, system=system, initial=initial)
    for command in ("steady", "simulate"):
        with pytest.raises(ConfigError):
            parse_config(data, task=command)
        assert main([command, "--config", str(write_config(tmp_path, data))]) == EXIT_VALIDATION
        assert not (tmp_path / "out").exists()
    for command in ("eigen", "verify"):  # tasks that read no initial data
        assert parse_config(data, task=command).initial["kind"] == initial["kind"]


@PROPERTY
@given(value=st.one_of(junk, st.integers(), finite(-1e3, 1e3)))
@example(value=5)
def test_solver_section_that_is_not_an_object_exits_with_validation_code(tmp_path, value):
    assume(not isinstance(value, dict))
    path = write_config(tmp_path, base_config(tmp_path, solver=value))
    assert main(["eigen", "--config", str(path)]) == EXIT_VALIDATION


def test_list_threshold_name_exits_with_validation_code(tmp_path):
    """A list is unhashable: matching it against the THRESHOLDS dict raised TypeError, exit 1."""
    data = base_config(tmp_path, task={"name": "threshold", "threshold_name": ["d_c"]})
    with pytest.raises(ConfigError):
        parse_config(data)
    assert main(["threshold", "--config", str(write_config(tmp_path, data))]) == EXIT_VALIDATION


@PROPERTY
@given(value=junk)
@example(value=["d_c"])
@example(value={"d_c": 1})
def test_threshold_name_that_names_no_threshold_exits_with_validation_code(tmp_path, value):
    assume(value not in tuple(THRESHOLDS))
    data = base_config(tmp_path, task={"name": "threshold", "threshold_name": value})
    assert main(["threshold", "--config", str(write_config(tmp_path, data))]) == EXIT_VALIDATION


@st.composite
def small_task_configs(draw):
    """valid_configs of every task but verify, on at most 41 nodes and up to 200 steps, with
    sampled coefficients of the grid's size."""
    data = draw(valid_configs(tasks=[task for task in TASKS if task != "verify"]))
    n = data["grid"]["n"] = draw(st.integers(3, 41))
    for spec in (data["params"][name] for name in ("alpha", "beta", "m")):
        if spec["kind"] == "samples":
            spec["values"] = draw(st.lists(finite(0.1, 3.0), min_size=n, max_size=n))
    data["solver"].update(dt=draw(finite(0.01, 1.0)), t_max=draw(finite(0.01, 2.0)))
    return data


# The status line that ends report.txt for each exit code of a task other than verify.
STATUS_OF_EXIT = {EXIT_OK: ("status: OK", "status: PARTIAL"),
                  EXIT_VALIDATION: ("status: INVALID '",),
                  EXIT_NUMERICAL: ("status: NUMERICAL FAILURE '",),
                  EXIT_HYPOTHESIS: ("status: FAILED precondition '",)}


def run_main(config: Path, task: str, out: Path) -> tuple[int, dict, str]:
    """Exit code, output files by name and stderr of main in this process."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main([task, "--config", str(config), "--out", str(out)])
    files = {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("*"))
             if path.is_file()} if out.exists() else {}
    return code, files, stderr.getvalue()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=small_task_configs())
@example(data={"grid": {"a": 0.0, "b": 1.0, "n": 11}, "task": "steady",
               "params": {"d1": 0.1, "d2": 1.0, "alpha": {"kind": "constant", "value": 1.0},
                          "beta": {"kind": "constant", "value": 1.0},
                          "m": {"kind": "constant", "value": 0.5}},
               "solver": {"dt": 0.01, "t_max": 0.05}})  # reaches t_max unconverged
@example(data={"grid": {"a": 0.0, "b": 1.0, "n": 21},
               "task": {"name": "sweep", "parameter": "d3", "values": [0.3, 2.0]},
               "params": {"d1": 0.1, "d2": 1.0, "alpha": {"kind": "constant", "value": 1.0},
                          "beta": {"kind": "constant", "value": 1.0},
                          "m": {"kind": "cosine_profile", "mean": 1.5, "amplitude": 0.3}},
               "solver": {"dt": 0.05, "t_max": 1.0}})  # PARTIAL: points stop at t_max
def test_status_line_names_the_exit_code(data):
    """Every task but verify ends report.txt with the one status of its exit code, or, when
    the parser rejects the config, writes nothing and one error line; a rerun is identical."""
    task = data["task"] if isinstance(data["task"], str) else data["task"]["name"]
    with tempfile.TemporaryDirectory() as tmp:
        config = write_config(Path(tmp), data)
        first, second = (run_main(config, task, Path(tmp) / name) for name in ("a", "b"))
    assert first == second
    code, files, stderr = first
    assert code in STATUS_OF_EXIT
    if not files:
        assert code == EXIT_VALIDATION and stderr.startswith("error: ") and stderr.count("\n") == 1
        return
    last = files[Path("report.txt")].decode("utf-8").splitlines()[-1]
    assert [c for c, statuses in STATUS_OF_EXIT.items() if last.startswith(statuses)] == [code]
