import json
import math
from importlib import resources

import jsonschema
import pytest

from degcount import DegreeSet, multigraph_weight
from degcount.cli import main


@pytest.fixture(scope="module")
def schema():
    text = (resources.files("degcount") / "schemas" / "cli_output.schema.json"
            ).read_text()
    return json.loads(text)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def validate_json_lines(schema, out):
    payloads = []
    for line in out.splitlines():
        line = line.strip()
        if line.startswith("{"):
            payload = json.loads(line)
            jsonschema.validate(payload, schema)
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
        # no two members sum to 2
        argv = ["--degrees", "0,5,7", "--n", "2", "--m", "1"]
        code1, out1 = run(capsys, "count-exact", *argv)
        code2, out2 = run(capsys, "sample", *argv, "--seed", "1")
        assert code1 == code2 == 2
        exact = validate_json_lines(schema, out1)[0]
        sample = validate_json_lines(schema, out2)[0]
        assert exact["feasible"] is sample["feasible"] is False
        assert exact["weight"] == "0/1"
        assert exact["reason"] == sample["reason"] == (
            "no degree sequence from 0,5,7 on 2 vertices sums to 2")

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


class TestSampling:
    def test_infeasible_sample_exits_two(self, capsys, schema):
        code, out = run(capsys, "sample", "--degrees", "1,3", "--n", "3",
                        "--m", "2", "--seed", "7", "--samples", "1")
        assert code == 2
        payload = validate_json_lines(schema, out)[0]
        assert payload["feasible"] is False
        assert "periodicity" in payload["reason"]

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

    def test_exhausted_exits_three(self, capsys):
        code, out = run(capsys, "sample", "--degrees", "2", "--n", "2",
                        "--m", "2", "--seed", "5", "--samples", "1",
                        "--max-attempts", "4")
        assert code == 3
        payload = json.loads(out)
        assert payload["error"] == "sampler attempts exhausted"
        assert payload["report"]["rejections"] == 4

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

    def test_boltzmann_bad_target(self, capsys):
        code, out = run(capsys, "boltzmann", "--degrees", "min=2", "--n", "10",
                        "--mean-degree", "1.5", "--samples", "1")
        assert code == 2

    def test_boltzmann_parity_obstruction_exits_two(self, capsys, schema):
        code, out = run(capsys, "boltzmann", "--degrees", "1,3", "--n", "5",
                        "--mean-degree", "2", "--samples", "1")
        assert code == 2
        payload = validate_json_lines(schema, out)[0]
        assert payload["feasible"] is False
        assert "odd" in payload["reason"]


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

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code = main(["count-exact", "--degrees", "even", "--n", "4",
                     "--m", "2", "--output", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["weight"] == "5/1"


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
