"""pooledsim benchmark: one workload run, checked, as one JSON line.

Usage, from the root of a pooledsim checkout:

    python3 perfbench/run.py --workload soundness --seed 1 --seconds 30 --trace 0

Each run launches the workload's load process (load.py) several times to
measure set-up, and lets the last launch run the timed operations and check
every output against the benchmark's own computations (checks.py).  It prints
one JSON object as its last line of standard output.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the load runs the layer
profile (layers.py) instead and the metrics are the per-layer ones.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import LABELS, PARAMS, SETUP_LAUNCHES, WORKLOADS, child_env

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ops_per_s": "1/s",
    **{f"op_ms.{label}": "ms" for label in LABELS},
}

PER_LAYER = {
    **{f"designs.generate_ms.{label}": "ms" for label in LABELS},
    **{f"designs.generate_share.{label}": "ratio" for label in LABELS},
    "designs.repair_surplus_copies": "count",
    **{f"designs.edges.{label}": "count" for label in LABELS},
    "designs.write_edge_list_ms": "ms",
    "designs.read_edge_list_ms": "ms",
    "designs.edge_list_bytes": "bytes",
    **{f"channel.queries_ms.{label}": "ms" for label in LABELS},
    **{f"decoder.scores_ms.{label}": "ms" for label in LABELS},
    "decoder.decode_ms": "ms",
    "model.truth_ms": "ms",
    "model.recovery_ms": "ms",
    "experiment.trial_overhead_ms": "ms",
    "experiment.sweep_s.workers1": "s",
    "experiment.sweep_s.workersN": "s",
    "experiment.parallel_efficiency": "ratio",
    "cli.sweep_overhead_s": "s",
    "cli.generate_overhead_s": "s",
    "trace.overhead_pct": "%",
}

TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The run could not produce a result."""


def launch(args: argparse.Namespace, out: Path, deadline: float, *extra: str) -> float:
    """Run load.py once; return the seconds from launch to its READY line."""
    command = [sys.executable, str(Path(__file__).with_name("load.py")),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--out", str(out), "--scale", args.scale, *extra]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=child_env())
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("load process ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise BenchError(f"load process failed (exit {code})")
    return setup


def run(args: argparse.Namespace, out: Path) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    if args.trace:
        launch(args, out, deadline, "--trace")
        shutil.move(out / "trace.json",
                    out.parent / f"trace-{args.workload}-seed{args.seed}.json")
        units = PER_LAYER
    else:
        setups = [launch(args, out, deadline, "--setup-only") for _ in range(SETUP_LAUNCHES - 1)]
        setups.append(launch(args, out, deadline))
        units = END_TO_END
    result = json.loads((out / "result.json").read_text(encoding="utf-8"))
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    for line in result["raised"]:
        print(f"perfbench: {line}", file=sys.stderr)
    for error in result["errors"]:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"the run did not measure {', '.join(missing)}")
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(PARAMS), default="full",
                        help="'tiny' shrinks every input, for the benchmark's own tests")
    args = parser.parse_args()
    if not (Path.cwd() / "src" / "pooledsim" / "__init__.py").is_file():
        print("perfbench: no src/pooledsim here; run from the root of a pooledsim checkout",
              file=sys.stderr)
        return 2
    base = Path.cwd() / ".perfbench"
    base.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"run-{args.workload}-", dir=base))
    try:
        report = run(args, out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
