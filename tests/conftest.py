from degcount import DegreeSet

# The degree sets exercised throughout the suite: the three closed-form
# infinite families plus finite lists covering singleton, periodic and
# aperiodic cases.
FAMILY = [
    DegreeSet.min_degree(0),
    DegreeSet.min_degree(1),
    DegreeSet.min_degree(2),
    DegreeSet.even(),
    DegreeSet.odd(),
    DegreeSet.finite([2]),
    DegreeSet.finite([1, 3]),
    DegreeSet.finite([2, 3]),
]

FAMILY_IDS = [str(d) for d in FAMILY]

# Sets beyond FAMILY whose single-coefficient routes differ: deeper minimum
# degrees run the half band sweep joined by one convolution, 0,4,7 runs
# Miller's recurrence with a nonzero constant term, and 3,6,9 steps it by
# periodicity 3.
WIDER = [DegreeSet.min_degree(3), DegreeSet.min_degree(5),
         DegreeSet.finite([0, 4, 7]), DegreeSet.finite([3, 6, 9])]
ALL_ROUTES = FAMILY + WIDER
ALL_ROUTE_IDS = FAMILY_IDS + [str(d) for d in WIDER]

# Subfamily where the saddle-point machinery applies (at least two members).
SADDLE_FAMILY = [d for d in FAMILY if d.size != 1]
SADDLE_FAMILY_IDS = [str(d) for d in SADDLE_FAMILY]
