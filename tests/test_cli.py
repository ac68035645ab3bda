import json
import math
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dispersal_lab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_HYPOTHESIS,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    load_config,
    main,
    parse_config,
    run_scenario,
)
from dispersal_lab.mesh import build_grid
from dispersal_lab.spectral import scalar_eigenvalue
from dispersal_lab.model import CoefficientSpec, ModelParams, sample_coefficients
from dispersal_lab.analysis import THRESHOLDS, find_threshold, subsystem_steady
from dispersal_lab.verify import CHECKERS


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


@pytest.mark.parametrize("name", ["mu_star", "mu_zero"])
def test_scan_lattice_without_a_cell_is_a_validation_error(tmp_path, name):
    data = base_config(tmp_path, task={"name": "threshold", "threshold_name": name})
    data["params"]["m"] = {"kind": "cosine_profile", "mean": -0.1, "amplitude": 0.3}
    data["solver"] = {"scan_points": 1}
    assert run_scenario(parse_config(data)).exit_status == EXIT_VALIDATION


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
    assert "precondition" in artifacts.report_path.read_text()


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


@st.composite
def valid_configs(draw):
    a = draw(finite(-2.0, 1.0))
    d1 = draw(finite(0.01, 1.0))
    task = draw(st.sampled_from(["eigen", "steady", "threshold", "sweep", "verify"]))
    task_spec = {"name": task}
    if task == "threshold":
        task_spec["threshold_name"] = draw(st.sampled_from(list(THRESHOLDS)))
    elif task == "sweep":
        task_spec["parameter"] = draw(st.sampled_from(["d3", "beta", "alpha"]))
        task_spec["values"] = draw(st.lists(finite(0.01, 5.0), min_size=1, max_size=4))
    elif task == "verify":
        groups = st.sampled_from(list(CHECKERS))
        task_spec["groups"] = draw(st.lists(groups, min_size=1, max_size=3, unique=True))
    return {
        "grid": {"a": a, "b": a + draw(finite(0.1, 3.0)), "n": draw(st.integers(3, 2001))},
        "params": {
            "d1": d1, "d2": d1 * draw(finite(1.0, 20.0)), "d3": draw(finite(0.01, 5.0)),
            "b": draw(finite(0.0, 3.0)), "c": draw(finite(0.0, 3.0)),
            "alpha": {"kind": "constant", "value": draw(finite(0.1, 3.0))},
            "beta": {"kind": "constant", "value": draw(finite(0.1, 3.0))},
            "m": {"kind": "cosine_profile", "mean": draw(finite(-1.0, 1.0)),
                  "amplitude": draw(finite(0.0, 1.0)), "frequency": draw(st.integers(1, 4))},
        },
        "system": draw(st.sampled_from(["submodel", "two_species_general", "logistic",
                                        "three_component"])),
        "task": task_spec,
        "solver": draw(st.fixed_dictionaries({}, optional={
            "dt": finite(1e-4, 1.0), "tol": finite(1e-12, 1e-3), "t_max": finite(1.0, 1e4),
            "sample_every": finite(0.1, 10.0), "store_fields": st.booleans(),
            "scan_points": st.integers(2, 200),
        })),
        "seed": draw(st.integers(0, 2**31)),
        "output": "out",
    }


@PROPERTY
@given(data=valid_configs())
def test_valid_configs_round_trip(data):
    config = parse_config(data, base_dir=Path("base"))
    solver, params, task = data["solver"], data["params"], data["task"]
    assert (config.grid.a, config.grid.b, config.grid.n) == tuple(data["grid"].values())
    assert (config.params.d1, config.params.d2, config.params.d3, config.params.b,
            config.params.c) == tuple(params[k] for k in ("d1", "d2", "d3", "b", "c"))
    assert config.params.alpha.value == params["alpha"]["value"]
    assert config.params.m.mean == params["m"]["mean"]
    assert config.system.value == data["system"]
    assert config.task == task["name"]
    assert config.output_dir == Path("base") / "out"
    assert config.seed == data["seed"]
    assert config.scan_points == solver.get("scan_points", 64)
    assert config.solver.dt == solver.get("dt", 0.01)
    assert config.solver.tol == solver.get("tol", 1e-9)
    assert config.solver.t_max == solver.get("t_max", 2000.0)
    assert config.solver.sample_every == solver.get("sample_every", 1.0)
    assert config.solver.store_fields is False
    assert config.threshold_name == task.get("threshold_name")
    assert config.sweep_parameter == task.get("parameter")
    assert config.sweep_values == task.get("values")
    assert config.verify_groups == task.get("groups")


def converts(convert, value):
    """Whether convert(value) gives a finite number, as parse_config requires."""
    try:
        number = convert(value)
    except (TypeError, ValueError, OverflowError):
        return False
    return isinstance(number, int) or math.isfinite(number)


# Mostly values that float() and int() cannot convert: text, lists, objects, null.
junk = st.one_of(st.text(max_size=6), st.lists(st.integers(), max_size=2),
                 st.dictionaries(st.text(max_size=2), st.integers(), max_size=2), st.none())
# json writes these as NaN, Infinity and -Infinity, and Python's json reads them back.
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


INITIAL_FIELDS = {"random_low": ("random", "low"), "random_high": ("random", "high"),
                  "random_seed": ("random", "seed"), "eigenfunction_scale": ("eigenfunction", "scale")}
GRID_FIELDS = {"grid_a": "a", "grid_b": "b", "grid_n": "n"}
PARAMS_FIELDS = ("d1", "d2", "d3", "b", "c")
# field -> (coefficient, its spec with the number at the key that is None)
COEFFICIENT_FIELDS = {
    "alpha_value": ("alpha", {"kind": "constant", "value": None}),
    "m_mean": ("m", {"kind": "cosine_profile", "mean": None, "amplitude": 0.3}),
    "m_amplitude": ("m", {"kind": "cosine_profile", "mean": 0.4, "amplitude": None}),
    "m_frequency": ("m", {"kind": "cosine_profile", "mean": 0.4, "amplitude": 0.3,
                          "frequency": None}),
}
INTEGRAL_FIELDS = ("seed", "scan_points", "random_seed", "grid_n", "m_frequency")


@PROPERTY
@given(field=st.sampled_from(["dt", "tol", "t_max", "sample_every", "scan_points", "seed",
                              "sweep_value", "m_sample", "constant_value", *INITIAL_FIELDS,
                              *GRID_FIELDS, *PARAMS_FIELDS, *COEFFICIENT_FIELDS]),
       value=st.one_of(junk, non_finite))
@example(field="dt", value="abc")
@example(field="seed", value="x")
@example(field="scan_points", value="x")
@example(field="sweep_value", value="a")
@example(field="random_seed", value=None)
@example(field="random_low", value=[1])
@example(field="random_high", value="x")
@example(field="eigenfunction_scale", value={})
@example(field="t_max", value=math.inf)
@example(field="m_frequency", value=math.inf)
@example(field="grid_n", value=math.inf)
@example(field="random_high", value=math.inf)
@example(field="tol", value=math.inf)
@example(field="d3", value=math.inf)
@example(field="sample_every", value=math.inf)
@example(field="dt", value=math.inf)
@example(field="sweep_value", value=math.inf)
@example(field="b", value=math.inf)
@example(field="alpha_value", value=math.nan)
@example(field="grid_a", value=-math.inf)
@example(field="m_sample", value=math.nan)
@example(field="constant_value", value=-math.inf)
@example(field="d2", value=10**400)
def test_malformed_number_exits_with_validation_code(tmp_path, field, value):
    """Numbers that do not convert, and non-finite ones, exit 2 before any task runs."""
    assume(not converts(int if field in INTEGRAL_FIELDS else float, value))
    data = base_config(tmp_path)
    if field == "seed":
        data["seed"] = value
    elif field == "sweep_value":
        data["task"] = {"name": "sweep", "parameter": "d3", "values": [0.1, value]}
    elif field in INITIAL_FIELDS or field == "constant_value":
        kind, key = INITIAL_FIELDS.get(field, ("constant", "values"))
        data["task"] = {"name": "simulate"}
        data["solver"] = {"t_max": 0.05}
        data["initial"] = {"kind": kind, key: [0.2, value] if kind == "constant" else value}
    elif field in GRID_FIELDS:
        data["grid"][GRID_FIELDS[field]] = value
    elif field in PARAMS_FIELDS:
        data["params"][field] = value
    elif field in COEFFICIENT_FIELDS:
        name, spec = COEFFICIENT_FIELDS[field]
        data["params"][name] = {k: value if v is None else v for k, v in spec.items()}
    elif field == "m_sample":
        data["params"]["m"] = {"kind": "samples", "values": [0.4] * 100 + [value]}
    else:
        data["solver"] = {field: value}
    path = write_config(tmp_path, data)
    assert main([data["task"]["name"], "--config", str(path)]) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()


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
