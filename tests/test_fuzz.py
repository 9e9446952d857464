"""Property tests of the exact layer and the command line on random inputs.

Every exact route (Miller's recurrence, the power sums, the min=delta
peel and half sweep) is checked against the full table from the row
recurrences, and the feasibility test against the sign of the count.
Random argument lists run every CLI command in process and must end with
a documented exit code and schema-valid output.  Derandomized, with a
fixed example budget, so every run draws the same examples.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from degcount import (DegreeSet, build_table, infeasibility_reason,
                      power_coefficient)
from degcount.cli import main
from degcount.tables import column_coefficients

from test_cli import load_schema, validate_json_lines

degree_sets = st.one_of(
    st.lists(st.integers(0, 12), min_size=1, max_size=5, unique=True).map(
        DegreeSet.finite),
    st.integers(0, 5).map(DegreeSet.min_degree),
    st.sampled_from([DegreeSet.even(), DegreeSet.odd()]),
)

fixed = settings(derandomize=True, database=None, deadline=None,
                 max_examples=800)


@fixed
@given(ds=degree_sets, n=st.integers(0, 40), j=st.integers(0, 120),
       data=st.data())
def test_routes_match_the_table(ds, n, j, data):
    table = build_table(ds, n, j)
    assert power_coefficient(ds, n, j) == table.value(n, j)
    ks = sorted(data.draw(st.sets(st.integers(0, j), max_size=8)),
                reverse=True)
    column = [table.value(n, k) for k in ks]
    assert list(column_coefficients(ds, n, ks)) == column


@fixed
@given(ds=degree_sets, n=st.integers(0, 40), m=st.integers(0, 60))
def test_feasible_exactly_when_positive(ds, n, m):
    positive = power_coefficient(ds, n, 2 * m) > 0
    assert (infeasibility_reason(ds, n, m) is None) == positive


SCHEMA = load_schema()

# well-formed sets and rationals, and a few strings the parser must reject
degree_specs = st.one_of(
    st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True).map(
        lambda ds: ",".join(map(str, ds))),
    st.integers(0, 4).map("min={}".format),
    st.sampled_from(["even", "odd", "2,,3"]),
)
rationals = st.one_of(
    st.fractions(-3, 3, max_denominator=4).map(str),
    st.sampled_from(["-1", "0", "1/2", "1/0", "u"]),
)


@st.composite
def cli_argvs(draw):
    """argv for one CLI command: n <= 12 and m <= 40 (-1 tests the check);
    sample always bounded by --allow-multi or --max-attempts 1-20, and
    boltzmann given --x in [1e-3, 1e3] or a --mean-degree."""
    command = draw(st.sampled_from(["count-exact", "count-asymptotic",
                                    "sg-estimate", "marked", "report",
                                    "sample", "boltzmann"]))
    argv = [command, "--degrees", draw(degree_specs),
            "--n", str(draw(st.integers(-1, 12)))]
    if command != "boltzmann":
        argv += ["--m", str(draw(st.integers(-1, 40)))]
    if command == "marked":
        argv += ["--u", draw(rationals), "--v", draw(rationals)]
    elif command == "report":
        argv += ["--steps", str(draw(st.integers(1, 3))),
                 "--factor", str(draw(st.integers(1, 2)))]
    elif command in ("sample", "boltzmann"):
        argv += ["--samples", str(draw(st.integers(1, 3))),
                 "--seed", str(draw(st.integers(0, 2 ** 32))),
                 "--format", draw(st.sampled_from(["edgelist", "json"]))]
        if command == "sample":
            argv += draw(st.one_of(
                st.just(["--allow-multi"]),
                st.integers(1, 20).map(lambda k: ["--max-attempts", str(k)])))
        else:
            argv += draw(st.one_of(
                st.floats(1e-3, 1e3).map(lambda x: ["--x", repr(x)]),
                st.floats(0.01, 12).map(
                    lambda t: ["--mean-degree", repr(t)])))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(argv=cli_argvs())
def test_cli_ends_with_a_documented_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert len(err.getvalue().splitlines()) == 1
    payloads = validate_json_lines(SCHEMA, out.getvalue())
    if code in (2, 3):
        assert len(payloads) == 1
