import json
from pathlib import Path

import pytest

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
from dispersal_lab.analysis import subsystem_steady


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
        return [verify_mod.CheckResult("mesh-order", "forced", "FAIL", "forced failure")]

    monkeypatch.setitem(verify_mod.CHECKERS, "mesh-order", always_fail)
    data = base_config(tmp_path, task={"name": "verify", "groups": ["mesh-order"]})
    config = parse_config(data)
    artifacts = run_scenario(config)
    assert artifacts.exit_status == EXIT_CHECK_FAILED


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
