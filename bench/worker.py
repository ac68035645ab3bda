"""One workload process: set up, warm up, run whole rounds, then check.

Run by ``run.py`` in a fresh interpreter per workload (and once more per
set-up probe), with BLAS and OpenMP pools held to one thread.  Prints
one JSON line with the process's own measurements.

CPU time comes from ``time.process_time``: set-up is the CPU time from
interpreter start to the first task call, a round is the CPU time of
one pass over the workload's operations.  Output checks and oracles run
after the rounds and after peak RSS is read, so they count in neither.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

from dispersal_lab import cli, model, spectral

from plan import D_LATTICE, MU_LATTICE, lattice


def run_op(op: dict, config) -> tuple[bool, object]:
    """Run one operation; return (succeeded, output)."""
    if op["kind"] == "cli":
        artifacts = cli.run_scenario(config)
        return artifacts.exit_status == cli.EXIT_OK, artifacts
    grid, p = config.grid, config.params
    coeffs = model.sample_coefficients(p, grid)
    if op["kind"] == "adjoint":
        problem = spectral.switching_problem(grid, p.d1, p.d2, coeffs.alpha, coeffs.beta, coeffs.m)
        primal = spectral.principal_eigen(problem)
        return True, (primal, spectral.adjoint_principal_eigen(problem, primal))
    if op["kind"] == "scan_mu":
        return True, [
            spectral.principal_eigen(
                spectral.switching_problem(grid, p.d1, p.d2, coeffs.alpha, coeffs.beta, mu * coeffs.m)
            )
            for mu in lattice(MU_LATTICE)
        ]
    if op["kind"] == "scan_d":
        return True, [spectral.scalar_eigenvalue(grid, d, coeffs.m) for d in lattice(D_LATTICE)]
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def guarded(op: dict, config) -> tuple[bool, object]:
    """run_op, with an exception counted as a failed operation."""
    try:
        return run_op(op, config)
    except Exception as exc:  # the operation failed; the round goes on
        traceback.print_exc(file=sys.stderr)
        return False, f"{type(exc).__name__}: {exc}"


def digest(output) -> str:
    """Hash of everything an operation produced, to compare rounds."""
    h = hashlib.sha256()
    if isinstance(output, cli.RunArtifacts):
        h.update(str(output.exit_status).encode())
        paths = list(output.csv_paths) + list(output.svg_paths)
        if output.report_path is not None:
            paths.append(output.report_path)
        for path in paths:
            h.update(Path(path).read_bytes())
    elif isinstance(output, str):
        h.update(output.encode())
    else:
        results = output if isinstance(output, (list, tuple)) else [output]
        for result in results:
            h.update(repr(result.lam).encode())
            h.update(result.eigenfunctions.tobytes())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    ops = plan["ops"]
    configs = {}
    for op in [plan["warmup"]] + ops:
        configs[op["id"]] = cli.load_config(op["config"])
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    configs = {
        op["id"]: replace(configs[op["id"]], output_dir=Path(op["out"]))
        for op in [plan["warmup"]] + ops
    }

    warmup_start = tracer.mark() if tracer else 0
    guarded(plan["warmup"], configs["warmup"])
    measured_start = tracer.mark() if tracer else 0

    round_cpu = []
    failures = {op["id"]: 0 for op in ops}
    digests: dict[str, set] = {op["id"]: set() for op in ops}
    first: dict[str, tuple[bool, object]] = {}
    stop_at = time.perf_counter() + args.seconds
    while True:
        outcomes = []
        start = time.process_time()
        for op in ops:
            outcomes.append(guarded(op, configs[op["id"]]))
        round_cpu.append(time.process_time() - start)
        for op, (ok, output) in zip(ops, outcomes):
            failures[op["id"]] += not ok
            digests[op["id"]].add(digest(output))
            first.setdefault(op["id"], (ok, output))
        if time.perf_counter() >= stop_at:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import checks

    problems = [f"{op_id}: output differs between rounds"
                for op_id, seen in digests.items() if len(seen) > 1]
    problems += checks.check(plan, first)
    layers = None
    if tracer:
        layers, cross = tracer.summarize(warmup_start, measured_start, len(round_cpu))
        problems += cross
        tracer.save(Path(plan["warmup"]["out"]).parent.parent / "spans.npz")
    print(json.dumps({
        "setup_s": setup_s,
        "round_cpu_s": round_cpu,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_round": len(ops),
        "failures": {op_id: n for op_id, n in failures.items() if n},
        "problems": problems,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
