import concurrent.futures
import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import degcount
from degcount import DegreeSequenceSampler, DegreeSet, multigraph_weight
from degcount.cli import main

SRC = str(Path(degcount.__file__).resolve().parents[1])


def load_schema():
    """The CLI's output schema, checked once against its metaschema."""
    text = (resources.files("degcount") / "schemas" / "cli_output.schema.json"
            ).read_text()
    schema = json.loads(text)
    jsonschema.validators.validator_for(schema).check_schema(schema)
    return schema


@pytest.fixture(scope="module")
def schema():
    return load_schema()


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate_json_lines(schema, out):
    # jsonschema.validate would check the schema itself again on every call
    validator = jsonschema.validators.validator_for(schema)(schema)
    payloads = []
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            payload = json.loads(line)
            validator.validate(payload)
            payloads.append(payload)
    return payloads


class TestCounting:
    def test_count_exact_matches_library(self, capsys, schema):
        code, out = run(capsys, "count-exact", "--degrees", "even",
                        "--n", "4", "--m", "2")
        assert code == 0
        payload = validate_json_lines(schema, out)[0]
        expected = multigraph_weight(DegreeSet.even(), 4, 2)
        assert payload["weight"] == f"{expected.numerator}/{expected.denominator}"
        assert payload["feasible"] is True

    def test_count_exact_infeasible(self, capsys, schema):
        code, out = run(capsys, "count-exact", "--degrees", "1,3",
                        "--n", "3", "--m", "2")
        assert code == 2
        payload = validate_json_lines(schema, out)[0]
        assert payload["feasible"] is False

    def test_count_exact_agrees_with_sample_on_empty_instance(self, capsys,
                                                                  schema):
        # 0,5,7 at n = 2, m = 1 passes the range and periodicity tests, yet
        # no two members sum to 2; every command gives the same reason
        argv = ["--degrees", "0,5,7", "--n", "2", "--m", "1"]
        payloads = {}
        for command in ("count-exact", "count-asymptotic", "sg-estimate",
                        "marked", "sample"):
            code, out = run(capsys, command, *argv)
            assert code == 2, command
            payloads[command] = validate_json_lines(schema, out)[0]
        assert payloads["count-exact"]["weight"] == "0/1"
        reason = "no degree sequence from 0,5,7 on 2 vertices sums to 2"
        common = {"degrees": "0,5,7", "n": 2, "m": 1, "feasible": False,
                  "reason": reason}
        for command, payload in payloads.items():
            assert payload["feasible"] is False, command
            assert payload["reason"] == reason, command
            assert payload.pop("command") == command
            payload.pop("weight", None)
            assert payload == common, command

    def test_estimate_fields(self, capsys, schema):
        code, out = run(capsys, "sg-estimate", "--degrees", "even",
                        "--n", "1000", "--m", "500")
        assert code == 0
        payload = validate_json_lines(schema, out)[0]
        assert payload["feasible"] is True
        assert payload["saddle_point"] == pytest.approx(1.19968, abs=1e-4)
        assert payload["log_natural"] > 0

    def test_estimate_regular_has_null_saddle(self, capsys, schema):
        code, out = run(capsys, "count-asymptotic", "--degrees", "2",
                        "--n", "6", "--m", "6")
        assert code == 0
        payload = validate_json_lines(schema, out)[0]
        assert payload["saddle_point"] is None

    def test_marked_agrees_with_count_exact(self, capsys, schema):
        code1, out1 = run(capsys, "marked", "--degrees", "even",
                          "--n", "4", "--m", "2", "--u", "0", "--v", "0")
        code2, out2 = run(capsys, "count-exact", "--degrees", "even",
                          "--n", "4", "--m", "2")
        assert code1 == code2 == 0
        marked = validate_json_lines(schema, out1)[0]["marked"]
        weight = validate_json_lines(schema, out2)[0]["weight"]
        assert marked == weight

    @pytest.mark.parametrize("spelling", [("--u", "-1/2", "--v", "-3/4"),
                                          ("--u=-1/2", "--v=-3/4")])
    def test_marked_negative_rationals(self, capsys, schema, spelling):
        code, out = run(capsys, "marked", "--degrees", "even", "--n", "4",
                        "--m", "2", *spelling)
        assert code == 0
        payload = validate_json_lines(schema, out)[0]
        assert (payload["u"], payload["v"]) == ("-1/2", "-3/4")
        assert payload["marked"] == "43/32"

    def test_marked_infeasible_exits_two(self, capsys, schema):
        code, out = run(capsys, "marked", "--degrees", "1,3", "--n", "300",
                        "--m", "2000", "--u", "-1", "--v", "-1")
        assert code == 2
        payload = validate_json_lines(schema, out)[0]
        assert payload == {"command": "marked", "degrees": "1,3", "n": 300,
                           "m": 2000, "feasible": False,
                           "reason": "total degree 4000 exceeds n*max(D) = 900"}

    def test_marked_zero_on_feasible_instance_exits_zero(self, capsys, schema):
        # the only multigraph is one loop, and v = -1 cancels it against
        # its marked copy, so the value is 0 on a feasible instance
        code, out = run(capsys, "marked", "--degrees", "even", "--n", "1",
                        "--m", "1", "--u", "0", "--v", "-1")
        assert code == 0
        assert validate_json_lines(schema, out)[0]["marked"] == "0/1"

    def test_count_exact_tests_feasibility_once(self, capsys, monkeypatch):
        from degcount import cli, tables
        calls = []
        reason = tables.infeasibility_reason

        def counted(*args):
            calls.append(args)
            return reason(*args)

        monkeypatch.setattr(tables, "infeasibility_reason", counted)
        monkeypatch.setattr(cli, "infeasibility_reason", counted,
                            raising=False)
        code, _ = run(capsys, "count-exact", "--degrees", "0,5,7",
                      "--n", "20", "--m", "40")
        assert code == 0
        assert len(calls) == 1

    # (argv, exit code): feasible and empty instances, for both commands
    # and for marked on a set without D-2, which takes the plain weight
    ONE_TEST = [
        (["count-exact", "--degrees", "1,3", "--n", "20", "--m", "20"], 0),
        (["count-exact", "--degrees", "1,3", "--n", "3", "--m", "5"], 2),
        (["count-exact", "--degrees", "0,5,7", "--n", "2", "--m", "1"], 2),
        (["marked", "--degrees", "even", "--n", "8", "--m", "4",
          "--u", "-1", "--v", "-1"], 0),
        (["marked", "--degrees", "1,3", "--n", "3", "--m", "5"], 2),
        (["marked", "--degrees", "0,5,7", "--n", "2", "--m", "1"], 2),
        (["marked", "--degrees", "0,1", "--n", "4", "--m", "2"], 0),
        (["marked", "--degrees", "0,1", "--n", "2", "--m", "2"], 2),
    ]

    @pytest.mark.parametrize("argv, code", ONE_TEST,
                             ids=[f"{a[0]}-{a[2]}-n{a[4]}-m{a[6]}" for a, _ in ONE_TEST])
    def test_one_feasibility_test_per_run(self, capsys, monkeypatch, argv,
                                          code):
        import degcount
        from degcount import tables
        calls = []
        reason = tables.infeasibility_reason

        def counted(*args):
            calls.append(args)
            return reason(*args)

        # every module that bound the test by name, the package included
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "degcount"
                    and getattr(module, "infeasibility_reason", None) is reason):
                monkeypatch.setattr(module, "infeasibility_reason", counted)
        assert degcount.infeasibility_reason is counted
        assert run(capsys, *argv)[0] == code
        assert len(calls) == 1


class TestSampling:
    def test_infeasible_sample_exits_two(self, capsys, schema):
        code, out = run(capsys, "sample", "--degrees", "1,3", "--n", "3",
                        "--m", "2", "--seed", "7", "--samples", "1")
        assert code == 2
        payload = validate_json_lines(schema, out)[0]
        assert payload["feasible"] is False
        assert "periodicity" in payload["reason"]
        assert payload == {
            "command": "sample", "degrees": "1,3", "n": 3, "m": 2,
            "feasible": False,
            "reason": "periodicity 2 does not divide 2m - n*min(D) = 1"}

    def test_edgelist_blocks_and_trailer(self, capsys, schema):
        code, out = run(capsys, "sample", "--degrees", "min=1", "--n", "4",
                        "--m", "3", "--seed", "1", "--samples", "3")
        assert code == 0
        blocks = [b for b in out.split("\n\n") if b.strip()]
        # the report trailer stands alone as the final block
        report = json.loads(blocks[-1])
        jsonschema.validate(report, schema)
        assert report["samples_produced"] == 3
        headers = [b.splitlines()[0] for b in blocks[:-1]]
        assert len(headers) == 3
        assert all(h == "4 3" for h in headers)

    def test_json_format_validates(self, capsys, schema):
        code, out = run(capsys, "sample", "--degrees", "even", "--n", "6",
                        "--m", "4", "--seed", "3", "--samples", "2",
                        "--format", "json")
        assert code == 0
        payload = validate_json_lines(schema, out)[0]
        assert len(payload["samples"]) == 2

    def test_json_instance_fields(self, capsys, schema):
        # sample draws at a fixed m and reports it; boltzmann's m is random
        _, out = run(capsys, "sample", "--degrees", "even", "--n", "6",
                     "--m", "4", "--seed", "3", "--format", "json")
        payload = validate_json_lines(schema, out)[0]
        assert (payload["command"], payload["n"], payload["m"]) == ("sample", 6, 4)
        _, out = run(capsys, "boltzmann", "--degrees", "even", "--n", "6",
                     "--x", "1.5", "--seed", "3", "--format", "json")
        payload = validate_json_lines(schema, out)[0]
        assert payload["command"] == "boltzmann"
        assert "m" not in payload

    def test_seed_determinism(self, capsys):
        _, out1 = run(capsys, "sample", "--degrees", "even", "--n", "8",
                      "--m", "6", "--seed", "99", "--samples", "4")
        _, out2 = run(capsys, "sample", "--degrees", "even", "--n", "8",
                      "--m", "6", "--seed", "99", "--samples", "4")
        assert out1 == out2

    def test_jobs_do_not_change_output(self, capsys):
        _, serial = run(capsys, "sample", "--degrees", "min=1", "--n", "6",
                        "--m", "5", "--seed", "21", "--samples", "4")
        _, parallel = run(capsys, "sample", "--degrees", "min=1", "--n", "6",
                          "--m", "5", "--seed", "21", "--samples", "4",
                          "--jobs", "2")
        assert serial == parallel

    # K_10, the one simple 9-regular graph on ten vertices, comes from a
    # pairing with probability about e^-20, so every attempt is rejected
    def test_exhausted_exits_three(self, capsys, schema):
        code, out = run(capsys, "sample", "--degrees", "9", "--n", "10",
                        "--m", "45", "--seed", "5", "--samples", "1",
                        "--max-attempts", "4")
        assert code == 3
        payload = json.loads(out)
        assert payload["error"] == "sampler attempts exhausted"
        assert payload["report"]["rejections"] == 4
        assert validate_json_lines(schema, out) == [{
            "command": "sample", "degrees": "9", "n": 10, "m": 45,
            "feasible": True, "error": "sampler attempts exhausted",
            "report": {"samples_requested": 1, "samples_produced": 0,
                       "rejections": 4, "odd_sum_retries": 0,
                       "empirical_acceptance": 0.0}}]

    # predicted attempts 1/acceptance: 1.3e118 for K_33 (min=2 on 33
    # vertices and 528 edges) and 4.9e8 for K_10, both past the cap
    CAPPED = [(["--degrees", "min=2", "--n", "33", "--m", "528"], 118.13),
              (["--degrees", "9", "--n", "10", "--m", "45"], 8.69)]

    @pytest.mark.parametrize("instance, log10", CAPPED, ids=["K33", "K10"])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_automatic_budget_is_capped(self, capsys, schema, instance,
                                        log10, jobs):
        start = time.perf_counter()
        code, out = run(capsys, "sample", *instance, "--samples", "2",
                        "--jobs", jobs)
        assert time.perf_counter() - start < 5
        assert code == 3
        payload = validate_json_lines(schema, out)[0]
        assert payload["error"] == \
            "predicted attempts exceed the automatic budget"
        assert payload["log10_predicted_attempts"] == pytest.approx(
            log10, abs=0.01)
        assert payload["report"]["rejections"] == 0

    # min=0 and min=1 at (1000, 5000) predict 10^13 attempts; the refusal
    # comes from the regime alone, so no row of the sampler is computed
    @pytest.mark.parametrize("degrees, log10", [
        ("min=0", 13.028834457097554), ("min=1", 13.027749555186212)])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_automatic_refusal_computes_no_row(self, capsys, monkeypatch,
                                               schema, degrees, log10, jobs):
        from degcount import sampling
        rows = []
        monkeypatch.setattr(sampling, "band_rows",
                            lambda *args: rows.append(args) or iter(()))
        start = time.perf_counter()
        code, out = run(capsys, "sample", "--degrees", degrees, "--n", "1000",
                        "--m", "5000", "--jobs", jobs)
        assert time.perf_counter() - start < 2
        assert code == 3
        assert rows == []
        assert validate_json_lines(schema, out) == [{
            "command": "sample", "degrees": degrees, "n": 1000, "m": 5000,
            "feasible": True,
            "error": "predicted attempts exceed the automatic budget",
            "log10_predicted_attempts": log10,
            "report": {"samples_requested": 1, "samples_produced": 0,
                       "rejections": 0, "odd_sum_retries": 0,
                       "empirical_acceptance": 0.0}}]

    def test_explicit_budget_overrides_the_cap(self, capsys, schema):
        code, out = run(capsys, "sample", *self.CAPPED[0][0],
                        "--max-attempts", "3")
        assert code == 3
        payload = validate_json_lines(schema, out)[0]
        assert payload["error"] == "sampler attempts exhausted"
        assert "log10_predicted_attempts" not in payload
        assert payload["report"]["rejections"] == 3

    def test_exhausted_with_jobs_matches_serial(self, capsys):
        # the exception, with its report, crosses the process pool
        argv = ["sample", "--degrees", "9", "--n", "10", "--m", "45",
                "--seed", "5", "--samples", "2", "--max-attempts", "4"]
        serial = run(capsys, *argv)
        assert serial[0] == 3
        assert run(capsys, *argv, "--jobs", "2") == serial

    # no simple graph: every degree is 10 on ten vertices; 2m = 92 and 14
    # exceed n(n-1) = 90 and 12; a 2-regular graph on two vertices has a
    # double edge.  --max-attempts keeps a rejection loop short.
    NO_SIMPLE_GRAPH = [
        (["--degrees", "10", "--n", "10", "--m", "50"],
         "no simple graph on 10 vertices: no degree in 10 is at most 9"),
        (["--degrees", "min=1", "--n", "10", "--m", "46"],
         "no simple graph on 10 vertices: total degree 92 exceeds "
         "n*max(D) = 90 with degrees at most 9"),
        (["--degrees", "min=0", "--n", "4", "--m", "7"],
         "no simple graph on 4 vertices: total degree 14 exceeds "
         "n*max(D) = 12 with degrees at most 3"),
        (["--degrees", "2", "--n", "2", "--m", "2"],
         "no simple graph on 2 vertices: no degree in 2 is at most 1"),
    ]

    @pytest.mark.parametrize("instance, reason", NO_SIMPLE_GRAPH,
                             ids=[" ".join(a[1::2]) for a, _ in NO_SIMPLE_GRAPH])
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_no_simple_graph_exits_two(self, capsys, schema, instance,
                                       reason, jobs):
        code, out = run(capsys, "sample", *instance, "--samples", "2",
                        "--max-attempts", "5", "--jobs", jobs)
        assert code == 2
        payload = validate_json_lines(schema, out)[0]
        n, m = int(instance[3]), int(instance[5])
        assert payload == {"command": "sample", "degrees": instance[1],
                           "n": n, "m": m, "feasible": False,
                           "reason": reason}

    @pytest.mark.parametrize("instance, reason", NO_SIMPLE_GRAPH,
                             ids=[" ".join(a[1::2]) for a, _ in NO_SIMPLE_GRAPH])
    def test_no_simple_graph_sg_estimate_exits_two(self, capsys, schema,
                                                   instance, reason):
        # the estimate reads the sampler's simple-graph test
        code, out = run(capsys, "sg-estimate", *instance)
        assert code == 2
        n, m = int(instance[3]), int(instance[5])
        assert validate_json_lines(schema, out) == [{
            "command": "sg-estimate", "degrees": instance[1], "n": n, "m": m,
            "feasible": False, "reason": reason}]
        code, out = run(capsys, "count-asymptotic", *instance)
        assert code == 0
        assert json.loads(out)["feasible"] is True

    @pytest.mark.parametrize("instance", [a for a, _ in NO_SIMPLE_GRAPH],
                             ids=[" ".join(a[1::2]) for a, _ in NO_SIMPLE_GRAPH])
    def test_no_simple_graph_allows_multigraphs(self, capsys, instance):
        code, out = run(capsys, "sample", *instance, "--samples", "2",
                        "--allow-multi")
        assert code == 0
        assert json.loads(out.split("\n\n")[-1])["samples_produced"] == 2

    def test_allow_multi(self, capsys):
        code, out = run(capsys, "sample", "--degrees", "2", "--n", "2",
                        "--m", "2", "--seed", "5", "--samples", "2",
                        "--allow-multi")
        assert code == 0
        assert out.count("2 2\n") >= 2

    def test_boltzmann_tuned(self, capsys, schema):
        code, out = run(capsys, "boltzmann", "--degrees", "min=2", "--n", "50",
                        "--mean-degree", "3", "--samples", "2", "--seed", "0",
                        "--format", "json")
        assert code == 0
        payload = validate_json_lines(schema, out)[0]
        assert payload["report"]["x"] == pytest.approx(2.1491, abs=1e-3)

    def test_boltzmann_bad_target(self, capsys, schema):
        code, out = run(capsys, "boltzmann", "--degrees", "min=2", "--n", "10",
                        "--mean-degree", "1.5", "--samples", "1")
        assert code == 2
        assert validate_json_lines(schema, out) == [{
            "command": "boltzmann", "degrees": "min=2", "n": 10,
            "feasible": False,
            "reason": "target 1.5 outside the open range ]2, inf["}]

    def test_boltzmann_parity_obstruction_exits_two(self, capsys, schema):
        code, out = run(capsys, "boltzmann", "--degrees", "1,3", "--n", "5",
                        "--mean-degree", "2", "--samples", "1")
        assert code == 2
        payload = validate_json_lines(schema, out)[0]
        assert payload["feasible"] is False
        assert "odd" in payload["reason"]
        assert payload == {
            "command": "boltzmann", "degrees": "1,3", "n": 5,
            "feasible": False,
            "reason": ("every degree the law on 1,3 can draw is odd, so 5 "
                       "vertices cannot have an even degree sum")}

    # n is odd and the law's even mass e is tiny, so a sequence has an even
    # total with probability about n*e: e = x/(2 + x) for 1,2 at x = 1e-12,
    # about 5040/x^7 for 0,5,7 at 1e6 and x/6 for min=5 at 1e-300; for the
    # last two, (1 + (e - o)^n)/2 rounds to 0 in floats.  Each used to
    # redraw for ever.
    PARITY_HANGS = [(["--degrees", "1,2", "--n", "3", "--x", "1e-12"], 11.824),
                    (["--degrees", "0,5,7", "--n", "3", "--x", "1e6"], 37.820),
                    (["--degrees", "min=5", "--n", "5", "--x", "1e-300"],
                     300.079)]

    @pytest.mark.parametrize("instance, log10", PARITY_HANGS,
                             ids=["1,2", "0,5,7", "min=5"])
    def test_boltzmann_parity_redraws_are_capped(self, schema, instance,
                                                 log10):
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path
                                                 if path else ""))
        proc = subprocess.run(
            [sys.executable, "-m", "degcount.cli", "boltzmann", *instance],
            env=env, capture_output=True, text=True, timeout=5)
        assert proc.returncode == 3, proc.stderr
        payload = validate_json_lines(schema, proc.stdout)[0]
        assert payload["command"] == "boltzmann"
        assert payload["error"] == \
            "predicted attempts exceed the automatic budget"
        assert payload["log10_predicted_attempts"] == pytest.approx(
            log10, abs=1e-3)
        assert payload["report"]["odd_sum_retries"] == 0

    @pytest.mark.parametrize("flag,value", [("--x", "nan"), ("--x", "inf"),
                                            ("--x", "-inf"),
                                            ("--mean-degree", "nan"),
                                            ("--mean-degree", "inf")])
    def test_boltzmann_non_finite_exits_one(self, capsys, flag, value):
        assert main(["boltzmann", "--degrees", "min=2", "--n", "10",
                     f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("degcount: ")

    def test_boltzmann_large_x(self, capsys, schema):
        # x**d / d! overflows a double here; the law is formed in log space
        code, out = run(capsys, "boltzmann", "--degrees", "min=2", "--n", "10",
                        "--x", "1000", "--format", "json")
        assert code == 0
        payload = validate_json_lines(schema, out)[0]
        assert payload["report"]["empirical_mean_degree"] == pytest.approx(
            1000.0, rel=0.05)


class TestReport:
    def test_tsv_shape(self, capsys):
        code, out = run(capsys, "report", "--degrees", "even", "--n", "8",
                        "--m", "4", "--steps", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert lines[0].split("\t") == ["n", "m", "log_exact",
                                        "log_asymptotic", "ratio", "rel_error"]
        for row in lines[1:]:
            assert len(row.split("\t")) == 6

    def test_error_shrinks_down_the_ladder(self, capsys):
        code, out = run(capsys, "report", "--degrees", "even", "--n", "16",
                        "--m", "8", "--steps", "3")
        rows = out.strip().splitlines()[1:]
        errors = [float(r.split("\t")[5]) for r in rows]
        assert errors == sorted(errors, reverse=True)


class TestRegimeEdges:
    """2m/n on an edge of D's range, and D-2 empty, exit 0 with answers."""

    @pytest.mark.parametrize("command", ["count-asymptotic", "sg-estimate"])
    def test_boundary_matches_forced_set(self, capsys, schema, command):
        code, out = run(capsys, command, "--degrees", "min=3",
                        "--n", "10", "--m", "15")
        assert code == 0
        payload = validate_json_lines(schema, out)[0]
        _, forced = run(capsys, command, "--degrees", "3",
                        "--n", "10", "--m", "15")
        assert payload["log_natural"] == json.loads(forced)["log_natural"]
        assert payload["saddle_point"] is None
        assert payload["loop_intensity"] is None
        if command == "count-asymptotic":
            assert payload["log_natural"] == pytest.approx(
                math.log(943496929375 / 9216), rel=1e-12)

    def test_empty_shift_estimates(self, capsys, schema):
        code1, out1 = run(capsys, "count-asymptotic", "--degrees", "0,1",
                          "--n", "10", "--m", "3")
        code2, out2 = run(capsys, "sg-estimate", "--degrees", "0,1",
                          "--n", "10", "--m", "3")
        assert code1 == code2 == 0
        multi = validate_json_lines(schema, out1)[0]
        simple = validate_json_lines(schema, out2)[0]
        assert simple["log_natural"] == multi["log_natural"]
        assert simple["loop_intensity"] == 0.0

    def test_empty_shift_marked(self, capsys, schema):
        code, out = run(capsys, "marked", "--degrees", "0,1", "--n", "10",
                        "--m", "3", "--u", "-1", "--v", "-1")
        assert code == 0
        assert validate_json_lines(schema, out)[0]["marked"] == "3150/1"

    def test_boundary_report_is_exact(self, capsys):
        code, out = run(capsys, "report", "--degrees", "min=3", "--n", "10",
                        "--m", "15", "--steps", "2")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2
        for row in rows:
            assert abs(float(row.split("\t")[4]) - 1.0) <= 1e-12

    def test_sg_estimate_solves_once(self, capsys, monkeypatch):
        from degcount import saddlepoint
        calls = []
        solve = saddlepoint.solve_mean_degree

        def counted(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(saddlepoint, "solve_mean_degree", counted)
        code, _ = run(capsys, "sg-estimate", "--degrees", "even",
                      "--n", "1000", "--m", "500")
        assert code == 0
        assert len(calls) == 1


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        assert main(["count-exact", "--n", "4", "--m", "2"]) == 1

    def test_bad_degree_text(self, capsys):
        assert main(["count-exact", "--degrees", "x,y", "--n", "4",
                     "--m", "2"]) == 1

    def test_bad_rational(self, capsys):
        assert main(["marked", "--degrees", "even", "--n", "4", "--m", "2",
                     "--u", "nope", "--v", "0"]) == 1

    def test_bad_rational_on_empty_shift(self, capsys):
        # D-2 empty skips the tables, not the parsing of (u, v)
        assert main(["marked", "--degrees", "0,1", "--n", "4", "--m", "2",
                     "--u", "nope", "--v", "0"]) == 1

    def test_bad_rational_names_its_flag(self, capsys):
        for flag in ("--u", "--v"):
            assert main(["marked", "--degrees", "even", "--n", "4", "--m", "2",
                         flag, "abc"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"degcount: {flag} abc is not a rational "
                                    "number\n")

    def test_zero_denominator(self, capsys):
        assert main(["marked", "--degrees", "even", "--n", "4", "--m", "2",
                     "--u", "1/0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "degcount: --u 1/0 has a zero denominator\n"

    def test_zero_denominator_in_v(self, capsys):
        assert main(["marked", "--degrees", "even", "--n", "4", "--m", "2",
                     "--v=-3/0"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "degcount: --v -3/0 has a zero denominator\n"

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["count-exact", "--degrees", "even", "--n", "4",
                     "--m", "2", "--output", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["weight"] == "5/1"

    @pytest.mark.parametrize("degrees, n, m", [("even", 4, 2), ("1,3", 3, 2)],
                             ids=["feasible", "infeasible"])
    @pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
    def test_unwritable_output_exits_one(self, capsys, tmp_path, degrees, n,
                                         m, where):
        # the infeasible payload is written while main handles an exception
        target = tmp_path / "missing" / "out.json" if where == "missing-dir" \
            else tmp_path
        code = main(["count-exact", "--degrees", degrees, "--n", str(n),
                     "--m", str(m), "--output", str(target)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("degcount: ")
        assert str(target) in lines[0]


class TestProcessPool:
    """`--jobs k` hands the one sampler to at most min(k, samples, CPUs)
    workers, and output stays the serial bytes."""

    ARGV = ["sample", "--degrees", "min=1", "--n", "6", "--m", "5",
            "--seed", "21"]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # an executor that records its size and runs the tasks in process;
        # the worker global it sets is restored to None afterwards
        from degcount import cli
        sizes = []

        class InProcessPool:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InProcessPool)
        monkeypatch.setattr(cli, "_WORKER_SAMPLER", None)
        return sizes

    def test_workers_capped_by_samples_and_cpus(self, capsys, monkeypatch,
                                                 pool_sizes):
        argv = self.ARGV + ["--samples", "3"]
        serial = run(capsys, *argv)
        assert run(capsys, *argv, "--jobs", "64") == serial
        assert all(k <= min(3, os.cpu_count() or 1) for k in pool_sizes)
        for cpus, size in [(8, 3), (2, 2), (1, None), (None, None)]:
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            pool_sizes.clear()
            assert run(capsys, *argv, "--jobs", "64") == serial
            assert pool_sizes == ([] if size is None else [size])

    def test_one_sample_starts_no_pool(self, capsys, monkeypatch, pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        argv = self.ARGV + ["--samples", "1"]
        serial = run(capsys, *argv)
        assert run(capsys, *argv, "--jobs", "2") == serial
        assert pool_sizes == []

    def test_no_simple_graph_starts_no_pool(self, capsys, monkeypatch,
                                            pool_sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        argv = ["sample", "--degrees", "10", "--n", "10", "--m", "50",
                "--samples", "4"]
        serial = run(capsys, *argv)
        assert serial[0] == 2
        assert run(capsys, *argv, "--jobs", "2") == serial
        assert pool_sizes == []
        # with --allow-multi the instance samples, through the pool
        assert run(capsys, *argv, "--allow-multi", "--jobs", "2")[0] == 0
        assert pool_sizes == [2]

    @pytest.mark.skipif(
        multiprocessing.get_context().get_start_method() != "fork"
        or (os.cpu_count() or 1) < 2,
        reason="needs a forking pool of two workers")
    def test_forked_workers_share_the_sampler(self, capsys, monkeypatch,
                                              tmp_path):
        from degcount import cli
        log = tmp_path / "pids"
        init = DegreeSequenceSampler.__init__

        def logged(self, *args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            init(self, *args)

        monkeypatch.setattr(DegreeSequenceSampler, "__init__", logged)
        code, _ = run(capsys, "sample", "--degrees", "even", "--n", "40",
                      "--m", "20", "--samples", "4", "--jobs", "2")
        assert code == 0
        assert log.read_text().split() == [str(os.getpid())]
        assert cli._WORKER_SAMPLER is None

    @pytest.mark.skipif((os.cpu_count() or 1) < 2,
                        reason="needs a pool of two workers")
    def test_spawned_workers_rebuild_the_sampler(self, capsys, monkeypatch):
        argv = self.ARGV + ["--samples", "4"]
        serial = run(capsys, *argv)
        spawning = functools.partial(concurrent.futures.ProcessPoolExecutor,
                                     mp_context=multiprocessing.get_context("spawn"))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spawning)
        assert run(capsys, *argv, "--jobs", "2") == serial


SAMPLE = ["sample", "--degrees", "min=1", "--n", "4", "--m", "3"]
BOLTZMANN = ["boltzmann", "--degrees", "min=2", "--n", "10", "--x", "1.5"]
REPORT = ["report", "--degrees", "even", "--n", "8", "--m", "4"]


class TestOptionBounds:
    @pytest.mark.parametrize("argv, flag", [
        (SAMPLE + ["--samples", "-1"], "--samples"),
        (BOLTZMANN + ["--samples", "0"], "--samples"),
        (SAMPLE + ["--jobs", "0"], "--jobs"),
        (SAMPLE + ["--max-attempts", "-2"], "--max-attempts"),
        (REPORT + ["--steps", "0"], "--steps"),
        (REPORT + ["--factor", "0"], "--factor"),
    ], ids=["sample-samples", "boltzmann-samples", "jobs", "max-attempts",
            "steps", "factor"])
    def test_rejected_with_one_line(self, capsys, argv, flag):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(f"degcount: {flag} must be at least")

    def test_smallest_values_accepted(self, capsys):
        code, _ = run(capsys, *SAMPLE, "--samples", "1", "--jobs", "1",
                      "--max-attempts", "0")
        assert code == 0
        code, _ = run(capsys, *REPORT, "--steps", "1", "--factor", "1")
        assert code == 0


class TestNumericalFailure:
    """An unconverged saddle solve exits 1 with one line, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["count-asymptotic", "--degrees", "even", "--n", "100", "--m", "50"],
        ["sg-estimate", "--degrees", "even", "--n", "100", "--m", "50"],
        ["boltzmann", "--degrees", "min=2", "--n", "10", "--mean-degree", "3"],
        ["sample", "--degrees", "even", "--n", "10", "--m", "5"],
    ], ids=lambda argv: argv[0])
    def test_exits_one(self, capsys, monkeypatch, argv):
        from degcount import saddlepoint
        point = saddlepoint._point

        def steep(ds, x, slope=True):
            # a slope 1e3 too steep makes every Newton step 1e3 too short
            log_egf, mean, dm, ratio = point(ds, x, slope)
            return log_egf, mean, 1e3 * dm, ratio

        monkeypatch.setattr(saddlepoint, "_point", steep)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("degcount: Newton did not converge")


class TestPinnedFloats:
    """Float-printing commands print the same bytes, to the last digit."""

    @pytest.mark.parametrize("argv,expected", [
        (["count-asymptotic", "--degrees", "min=2", "--n", "100000",
          "--m", "150000"],
         '{"command": "count-asymptotic", "degrees": "min=2", '
         '"exponent": 730208, "feasible": true, "log10": 730208.4913516826, '
         '"log_natural": 1681367.186964056, '
         '"loop_intensity": 1.216375266635687, "m": 150000, '
         '"mantissa": 3.0999285403265553, "n": 100000, '
         '"saddle_point": 2.149125799907061, '
         '"saddle_slope": 0.604083576619975}\n'),
        (["sg-estimate", "--degrees", "even", "--n", "1000", "--m", "500"],
         '{"command": "sg-estimate", "degrees": "even", "exponent": 1459, '
         '"feasible": true, "log10": 1459.443267091165, '
         '"log_natural": 3360.4923108746443, '
         '"loop_intensity": 0.7196144199453227, "m": 500, '
         '"mantissa": 2.77502622146721, "n": 1000, '
         '"saddle_point": 1.199678640257734, '
         '"saddle_slope": 1.1996786402577342}\n'),
        (["report", "--degrees", "even", "--n", "16", "--m", "8"],
         "n\tm\tlog_exact\tlog_asymptotic\tratio\trel_error\n"
         "16\t8\t19.3014310894\t19.3098181347\t1.00842231511\t0.00842232\n"
         "32\t16\t50.8145934672\t50.8187870574\t1.00420239565\t0.0042024\n"
         "64\t32\t125.267658056\t125.269754876\t1.00209902036\t0.00209902\n"
         "128\t64\t296.695973315\t296.697021729\t1.00104896418\t0.00104896\n"),
    ], ids=["count-asymptotic", "sg-estimate", "report"])
    def test_stdout_bytes(self, capsys, argv, expected):
        assert run(capsys, *argv) == (0, expected)
