"""Benchmark command for hankelssr.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Workloads: s1-mimo and study-parallel (see README.md).
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run.  Lines before it show the metrics as a table, the
environment and run details.  Output files go to ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(args, env) -> float:
    """Median wall time of fresh interpreters that import hankelssr and make
    the workload's inputs, then exit."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, timeout=170)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hankelssr" / "__init__.py").is_file():
        print(f"error: no hankelssr package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.setup(args.workload, args.seed)
        return 0

    from tracing import NullTracer, Tracer

    env = child_env()
    setup_s = measure_setup(args, env)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    tracer = Tracer() if args.trace else NullTracer()
    try:
        e2e, per_layer, ledger, verdicts, info = workloads.run(
            args.workload, args.seed, args.seconds, tracer, workdir, env
        )
    finally:
        if args.trace:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    e2e["setup_s"] = setup_s

    values = per_layer if args.trace else e2e
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in declared_metrics(args.trace).items()}
    if args.trace:
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    env_record = workloads.environment()
    result = {
        "correct": not verdicts.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**result, "environment": env_record, "info": info}, indent=2, default=str)
    )
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:14.6g} {m['unit']}")
    print("info " + json.dumps(info, default=str))
    print("environment " + json.dumps(env_record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
