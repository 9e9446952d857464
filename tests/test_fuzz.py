"""Property tests of the exact layer on random degree sets and indices.

Every exact route (Miller's recurrence, the power sums, the min=delta
peel and half sweep) is checked against the full table from the row
recurrences, and the feasibility test against the sign of the count.
Derandomized, with a fixed example budget, so every run draws the same
examples.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from degcount import (DegreeSet, build_table, infeasibility_reason,
                      power_coefficient)
from degcount.tables import column_coefficients

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
