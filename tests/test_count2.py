"""2x2 commuting-pair counting: the block-summed aggregated formula, the
literal per-direction sum, and the degenerate/nondegenerate split, all pinned
to the brute oracle and to each other.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st

from commucount.core import primitive_directions
from commucount.count2 import (
    count_commuting_2x2,
    count_commuting_2x2_by_direction,
    gamma_split,
    line_count,
    normalized_count_2x2,
    weighted_line_sum,
)
from commucount.core import power_sum_work
from commucount.divisor import r_zero
from commucount.errors import BudgetExceeded
from commucount.oracle import WorkBudget, brute_commuting_count

# Values the brute oracle reproduces below; kept literal so a regression in
# *both* routes cannot slip through silently.
KNOWN = {0: 1, 1: 817, 2: 12465, 3: 68673, 4: 254657}


@pytest.mark.parametrize("n, expected", sorted(KNOWN.items()))
def test_known_counts(n, expected):
    assert count_commuting_2x2(n) == expected


@pytest.mark.parametrize("n", range(4))
def test_matches_oracle(n):
    assert count_commuting_2x2(n) == brute_commuting_count(2, n)


def test_matches_oracle_n4():
    # ~43M vectorized pair tests; the largest oracle point in the unit tests.
    assert count_commuting_2x2(4) == KNOWN[4]
    assert brute_commuting_count(2, 4) == KNOWN[4]


def test_large_value_pinned():
    # 18 digits; any drift in the aggregation arithmetic shows up here.
    assert count_commuting_2x2(1000) == 146314462225587073


def test_aggregated_equals_per_direction():
    for n in range(151):
        assert count_commuting_2x2(n) == count_commuting_2x2_by_direction(n)


# (count, degenerate, nondegenerate, r_N(0)) recorded with the O(N) per-m
# evaluation that the block sums replaced, at 10^5, 10^6 and five N drawn
# from [10^4, 10^6] by random.Random(20250421).
PINNED = {
    100000: (1459697644326512736581446785, 640090746490583186083997441, 819606897835929550497449344, 1238950318465),
    1000000: (145966588029611334266212981286273, 64001056766879544997900937496449, 81965531262731789268312043789824, 146292133565185),
    175622: (24386634016972844021941718449, 10693282491212520069958213665, 13693351525760323951983504784, 3990269486881),
    259978: (173355930377383049570026521137, 76013069198329760203441884705, 97342861179053289366584636432, 9001922032705),
    537208: (6530802379483129295299040011649, 2863552639445020997434528081281, 3667249740038108297864511930368, 40474464376513),
    679846: (21198556830377961994602455829681, 9294863265228149895205252717089, 11903693565149812099397203112592, 65879576750369),
    885250: (79356619999512489008144475822001, 34795068119429312655151094891041, 44561551880083176352993380930960, 113714723025665),
}


@pytest.mark.parametrize("n", sorted(PINNED))
def test_block_sums_match_recorded_per_m_values(n):
    count, degenerate, nondegenerate, r0 = PINNED[n]
    assert count_commuting_2x2(n) == count
    assert gamma_split(n) == (degenerate, nondegenerate)
    assert r_zero(n) == r0


# (count, degenerate, nondegenerate, r_N(0)) at N = 10^7, 10^8 and 10^9,
# recorded with the recursion that walked Du's blocks once per degree,
# before one walk served every degree.  10^8 and 10^9 take about 5 s and 40 s;
# they run under COMMUCOUNT_ACCEPT_FULL=1.
PINNED_LARGE = {
    10**7: (14596620069240193951078036549815223169, 6400012060732767378806816105395808129, 8196608008507426572271220444419415040, 16868758800608513),
    10**8: (1459661667930383032320756940641556789194497, 640000135538535152158520702854826101823553, 819661532391847880162236237786730687370944, 1910843941376406913),
    10**9: (145966163297311745034239021697788263089685071489, 64000001504697642047522568401119350037143092673, 81966161792614102986716453296668913052541978816, 213481224362141281665),
}
FULL_ONLY = pytest.mark.skipif(
    os.environ.get("COMMUCOUNT_ACCEPT_FULL") != "1",
    reason="set COMMUCOUNT_ACCEPT_FULL=1 for N = 10^8 and 10^9",
)


@pytest.mark.parametrize(
    "n",
    [
        pytest.param(10**7, id="1e7"),
        pytest.param(10**8, id="1e8", marks=FULL_ONLY),
        pytest.param(10**9, id="1e9", marks=FULL_ONLY),
    ],
)
def test_large_values_pinned(n):
    count, degenerate, nondegenerate, r0 = PINNED_LARGE[n]
    assert count_commuting_2x2(n) == count
    assert gamma_split(n) == (degenerate, nondegenerate)
    assert r_zero(n) == r0


def test_budget_charged_before_the_work():
    with pytest.raises(BudgetExceeded):
        count_commuting_2x2(10**15)
    with pytest.raises(BudgetExceeded):
        gamma_split(10**6, WorkBudget(10**4))
    assert gamma_split(10**6, WorkBudget(power_sum_work(10**6, 2))) == PINNED[10**6][1:3]


def test_rejects_negative():
    with pytest.raises(ValueError):
        count_commuting_2x2(-1)
    with pytest.raises(ValueError):
        gamma_split(-2)


# --- the direction-level ingredients -----------------------------------------

@given(st.integers(0, 300), st.sampled_from(primitive_directions(8)))
def test_line_count_counts_multiples(n, p):
    direct = sum(
        1
        for z in range(-3 * n - 1, 3 * n + 2)
        if z != 0 and abs(z * p.u) <= n and abs(z * p.v) <= n
    )
    assert line_count(n, p) == direct


@settings(max_examples=60)
@given(st.integers(0, 40), st.sampled_from(primitive_directions(6)))
def test_weighted_line_sum_counts_pairs(n, p):
    """w_p literally counts ordered point pairs of the box whose difference
    is a nonzero multiple of p."""
    direct = 0
    for z in range(-2 * n, 2 * n + 1):
        if z == 0:
            continue
        dx, dy = z * p.u, z * p.v
        if abs(dx) <= 2 * n and abs(dy) <= 2 * n:
            direct += (2 * n + 1 - abs(dx)) * (2 * n + 1 - abs(dy))
    assert weighted_line_sum(n, p) == direct


# --- the degenerate / nondegenerate split -------------------------------------


def classify_pair_slow(n):
    """Independent re-count of the split at tiny n: enumerate all commuting
    pairs and bucket by whether an off-diagonal entry vanishes."""
    rng = range(-n, n + 1)
    deg = nondeg = 0
    for a1 in rng:
        for a2 in rng:
            for a3 in rng:
                for a4 in rng:
                    for b1 in rng:
                        for b2 in rng:
                            for b3 in rng:
                                for b4 in rng:
                                    if (
                                        a2 * b3 == a3 * b2
                                        and a2 * (b4 - b1) == b2 * (a4 - a1)
                                        and a3 * (b4 - b1) == b3 * (a4 - a1)
                                    ):
                                        if 0 in (a2, a3, b2, b3):
                                            deg += 1
                                        else:
                                            nondeg += 1
    return deg, nondeg


def test_split_matches_slow_classification():
    for n in (0, 1):
        assert tuple(gamma_split(n)) == classify_pair_slow(n)


def test_split_partitions_exactly():
    for n in (0, 1, 2, 3, 5, 10, 100, 1000):
        split = gamma_split(n)
        assert split.degenerate + split.nondegenerate == count_commuting_2x2(n)
        assert split.degenerate >= 0 and split.nondegenerate >= 0


def test_split_pinned_at_n1():
    assert gamma_split(1) == (665, 152)


def test_degenerate_weight_tends_to_two():
    # degenerate/(2N)^5 -> 2; both sides of the window around 2 get tested.
    r100 = gamma_split(100).degenerate / 200**5
    r1000 = gamma_split(1000).degenerate / 2000**5
    assert abs(r1000 - 2) < abs(r100 - 2) < 0.2
    assert abs(r1000 - 2) <= 0.05


# --- normalization -------------------------------------------------------------


def test_normalized_count_converges():
    devs = [
        abs(float(normalized_count_2x2(n)) - 4.5614425920673529)
        for n in (100, 1000, 10000)
    ]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.01
    # the window is wide enough that nearby 6-decimal anchors pass too
    assert abs(float(normalized_count_2x2(10000)) - 4.561447) <= 0.01
    with pytest.raises(ValueError):
        normalized_count_2x2(0)


def test_commuting_condition_is_direction_collinearity():
    """Spot-check the geometric reformulation the whole counter rests on:
    (A, B) commute iff (a2,b2), (a3,b3), (a4-a1,b4-b1) share a line."""
    import itertools

    rng = (-1, 0, 1)
    for a in itertools.product(rng, repeat=4):
        for b in itertools.product(rng, repeat=4):
            vecs = [
                (a[1], b[1]),
                (a[2], b[2]),
                (a[3] - a[0], b[3] - b[0]),
            ]
            # on one line through the origin: every cross product vanishes
            collinear = all(
                u[0] * v[1] == u[1] * v[0] for u in vecs for v in vecs
            )
            commutes = (
                a[1] * b[2] == a[2] * b[1]
                and a[1] * (b[3] - b[0]) == b[1] * (a[3] - a[0])
                and a[2] * (b[3] - b[0]) == b[2] * (a[3] - a[0])
            )
            assert collinear == commutes
