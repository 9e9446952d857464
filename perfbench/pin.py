"""Regenerate the pinned references in perfbench/refs/ from the current code.

    python3 perfbench/pin.py

The workload checks compare outputs against these pins, so run this only
when a change to degcount is meant to change a result, and say so in
CHANGES.md.  Covers every (degrees, n, m) the op lists can draw at both
scales, and every CLI --seed in the pool.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import degcount as dc  # noqa: E402
import workloads as w  # noqa: E402


def _evens(lo: int, hi: int):
    return range(lo, hi + 1, 2)


def pin_exact() -> tuple[dict, dict]:
    weights, marked = {}, {}
    for sizes in w.EXACT_SIZES.values():
        for degrees, mean in w.EXACT_MEANS.items():
            degree_set = dc.parse_degree_set(degrees)
            for n in _evens(*sizes["marked_n"]):
                m = w._edges_for_mean(n, mean)
                marked[f"{degrees}|{n}|{m}"] = w.fraction_digest(
                    dc.marked_multigraph_weight(degree_set, n, m, -1, -1))
            if w.exact_closed_form(degrees, 2, 1) is not None:
                continue  # checked against its closed form instead
            for n in _evens(*sizes["n"]):
                m = w._edges_for_mean(n, mean)
                weights[f"{degrees}|{n}|{m}"] = w.fraction_digest(
                    dc.multigraph_weight(degree_set, n, m))
    return weights, marked


def pin_saddle() -> dict:
    pins = {}
    for degrees, n, m in w.saddle_grid():
        degree_set = dc.parse_degree_set(degrees)
        pins[f"{degrees}|{n}|{m}"] = [
            dc.multigraph_count_asymptotic(degree_set, n, m).log_value,
            dc.simple_graph_count_asymptotic(degree_set, n, m).log_value,
            dc.acceptance_probability(degree_set, n, m)]
    return pins


def pin_cli() -> dict:
    deterministic, seeded = {}, {"sample": {}, "boltzmann": {}}
    for name, _, code, _ in w.CLI_SCRIPT:
        if name in w.SEEDED_ENTRIES:
            continue
        got, text = w.run_cli(w.Op(0, name, "", 0, 0))
        if got != code:
            raise SystemExit(f"{name} exited {got}, expected {code}")
        deterministic[name] = w.digest(text)
    for seed in range(w.CLI_SEED_POOL):
        for name, key in (("sample-serial", "sample"), ("boltzmann", "boltzmann")):
            got, text = w.run_cli(w.Op(0, name, "", 0, 0, seed))
            if got != 0:
                raise SystemExit(f"{name} --seed {seed} exited {got}")
            seeded[key][str(seed)] = w.digest(text)
    return {"deterministic": deterministic, "seeded": seeded}


def main() -> int:
    weights, marked = pin_exact()
    refs = {"exact": weights, "marked": marked, "saddle": pin_saddle(),
            "cli": pin_cli()}
    for name, pins in refs.items():
        path = HERE / "refs" / f"{name}.json"
        path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
        print(f"{path.name}: {len(pins)} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
