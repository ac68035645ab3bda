"""Acceptance battery: every criterion runs at its stated tolerance.

Each test executes one check group of the verification battery on the
scenario, grid and seed of configs/reference.json, read as the
command-line verify task reads them (201 nodes for dynamics, so 401 for
eigenvalue thresholds and 801 for the small-diffusion limit), and prints
one PASS/FAIL line per check.  Groups share no state: each computes what
it needs from the scenario and its grids.
"""

from pathlib import Path

import pytest

from dispersal_lab.cli import load_config, parse_config, run_scenario
from dispersal_lab.verify import VerifyContext, run_battery


@pytest.fixture(scope="module")
def ctx():
    config = load_config(Path(__file__).resolve().parents[1] / "configs" / "reference.json")
    return VerifyContext(config.params, config.grid, config.seed)


def run_group(ctx, number: int, group: str) -> None:
    results = run_battery(ctx, groups=[group])
    assert results, f"group {group} produced no checks"
    for r in results:
        print(f"[acceptance {number:02d}] {r.status:4s} {group}/{r.name}: {r.detail}")
    failed = [r for r in results if r.status == "FAIL"]
    assert not failed, "; ".join(f"{r.name}: {r.detail}" for r in failed)


def test_01_discretization_order(ctx):
    run_group(ctx, 1, "mesh-order")


def test_02_eigen_oracle_equivalence(ctx):
    run_group(ctx, 2, "eigen-oracle")


def test_03_scalar_eigenvalue_suite(ctx):
    run_group(ctx, 3, "scalar-eigenvalue-laws")


def test_04_coupled_positivity_conditions(ctx):
    run_group(ctx, 4, "pair-positivity")


def test_05_growth_derivative_and_critical_scaling(ctx):
    run_group(ctx, 5, "growth-derivative")


def test_06_diffusion_scaling_family(ctx):
    run_group(ctx, 6, "diffusion-scaling")


def test_07_extinction_persistence_dichotomy(ctx):
    run_group(ctx, 7, "extinction-persistence")


def test_08_competitive_uniqueness(ctx):
    run_group(ctx, 8, "competitive-uniqueness")


def test_09_invasion_brackets(ctx):
    run_group(ctx, 9, "invasion-brackets")


def test_10_exclusion_dynamics(ctx):
    run_group(ctx, 10, "exclusion-dynamics")


def test_11_switching_thresholds(ctx):
    run_group(ctx, 11, "switching-thresholds")


def test_12_switching_dynamics(ctx):
    run_group(ctx, 12, "switching-dynamics")


def test_13_verify_task_is_deterministic(tmp_path):
    outputs = []
    for sub in ("first", "second"):
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
            "task": {
                "name": "verify",
                "groups": ["mesh-order", "eigen-oracle", "scalar-eigenvalue-laws"],
            },
            "output": str(tmp_path / sub),
            "seed": 123,
        }
        artifacts = run_scenario(parse_config(data))
        assert artifacts.exit_status == 0
        outputs.append((tmp_path / sub / "verify_results.csv").read_bytes())
    assert outputs[0] == outputs[1]
    print("[acceptance 13] PASS determinism: verify CSVs byte-identical across reruns")
