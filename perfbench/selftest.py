"""Self-test of the benchmark, at tiny sizes (about two minutes).

    python3 perfbench/selftest.py

Asserts that
  * every workload prints every metric named in BENCHMARK.json, traced and
    untraced, and the untraced summary also names error_rate;
  * a corrupted pinned reference is reported as a failed op, so the checks
    can fail;
  * one seed gives one op list, and two traced runs with one seed give
    identical count metrics;
  * without the program's sources beside it the benchmark exits non-zero
    and prints no result.
It is a script rather than a pytest module so that the repository's test
run does not collect it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
END_TO_END = ["throughput_ops_s", "latency_p50_ms", "latency_p90_ms",
              "setup_s", "peak_rss_mb", "error_rate"]
# Per-layer metrics that must repeat exactly for a given seed.
COUNTS = ({m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".calls")}
          | {"tables.table_cells", "tables.table_mb_computed",
             "sampling.attempts_per_graph", "saddlepoint.solves_per_query"})


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--scale", "tiny"], cwd=cwd, capture_output=True, text=True,
        timeout=170)
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def test_metrics_printed_and_counts_repeat():
    for workload in WORKLOADS:
        proc = bench(workload, 3, 0)
        result = result_of(proc)
        assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
        for name in END_TO_END:
            assert f"# {workload} {name} = " in proc.stdout, (workload, name)
        first = result_of(bench(workload, 3, 1))["metrics"]
        assert list(first) == [m["name"] for m in SPEC["per_layer"]]
        second = result_of(bench(workload, 3, 1))["metrics"]
        for name in COUNTS:
            assert first[name] == second[name], (workload, name)
        print(f"ok   {workload}: metrics printed, counts repeat")


def _corrupt(refs: dict) -> dict:
    bad = json.loads(json.dumps(refs))
    for key in ("exact", "marked"):
        bad[key] = {k: "0" * 32 for k in bad[key]}
    bad["saddle"] = {k: [v * (1 + 1e-6) for v in vals]
                     for k, vals in bad["saddle"].items()}
    bad["cli"]["deterministic"] = {k: "0" * 32
                                   for k in bad["cli"]["deterministic"]}
    return bad


def test_corrupted_reference_fails():
    sys.path.insert(0, str(HERE))
    import run

    run.import_program()
    import workloads

    refs = _corrupt(workloads.load_refs())
    for workload in ("exact", "saddle", "cli"):
        args = run.parse_args(["--workload", workload, "--seed", "3",
                               "--seconds", "0.3", "--scale", "tiny"])
        result = run.run(args, refs=refs)["result"]
        assert result["failed"] > 0 and not result["correct"], workload
        print(f"ok   {workload}: a corrupted pin fails "
              f"{result['failed']}/{result['attempted']} ops")


def test_op_lists_follow_the_seed():
    sys.path.insert(0, str(HERE))
    import run

    run.import_program()
    import workloads

    refs = workloads.load_refs()
    for workload in WORKLOADS:
        wl = workloads.WORKLOADS[workload]("tiny", refs)
        assert wl.ops(5) == wl.ops(5), workload
        assert wl.ops(5) != wl.ops(6), workload
    print("ok   op lists: same seed same list, new seed new list")


def test_refuses_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("exact", 3, 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip().startswith("{")
    print("ok   refuses to run without src/degcount")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    test_op_lists_follow_the_seed()
    test_refuses_without_sources()
    test_corrupted_reference_fails()
    test_metrics_printed_and_counts_repeat()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
