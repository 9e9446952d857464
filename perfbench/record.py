"""Run every workload over several seeds and record medians and spreads.

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline.json

Each run is one ``run.py --trace 0`` process, made one after another.  The
record holds the environment (commit, Python and numpy versions, nproc, CPU
model), the seeds, a held-out seed for validating later claims, and for each
workload and end-to-end metric the values, their median and the spread:
the distance between the first and third quartile as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives the quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 9001


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "cpu": cpu}


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    parser.add_argument("--workloads", default="",
                        help="comma-separated; default all")
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = _seeds(args.seeds)
    record = {"environment": environment(), "seeds": seeds,
              "held_out_seed": HELD_OUT_SEED,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for name in names:
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"], cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                raise SystemExit(f"{name} seed {seed} failed:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary = {m: {"median": statistics.median(v), "spread": spread(v),
                       "values": v} for m, v in values.items()}
        record["workloads"][name] = {"failed": failed, "metrics": summary}
        for metric, s in summary.items():
            print(f"{name} {metric}: median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
