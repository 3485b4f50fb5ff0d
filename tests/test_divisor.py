"""Autocorrelation machinery: the exact r-table against the brute oracle,
the dense decimal transform against naive convolution, each route of the
correlation primitive against a naive double loop, and the classical
divisor-sum diagnostics.
"""

import hashlib
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from commucount import divisor
from commucount.divisor import (
    FiniteRealSet,
    _dense_correlation,
    _divisor_sieve,
    classic_divisor_correlation,
    divisor_bound_check,
    doubling_report,
    lemma61_check,
    moment,
    parse_set_file,
    partial_sum_check,
    partial_sum_float,
    r_set,
    r_table,
    r_zero,
)
from commucount.core import divisor_tau, zeta_value
from commucount.errors import BudgetExceeded, InvariantViolation
from commucount.oracle import WorkBudget, brute_r_table


# --- the dense transform -------------------------------------------------------


@settings(max_examples=40)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=120))
def test_dense_transform_matches_naive_convolution(counts):
    arr = np.asarray(counts, dtype=np.int64)
    corr = _dense_correlation(arr, len(str(int(arr @ arr))))
    L = len(arr)
    assert len(corr) == 2 * L - 1
    for h in range(-(L - 1), L):
        direct = sum(
            int(arr[i]) * int(arr[i - h]) for i in range(L) if 0 <= i - h < L
        )
        assert int(corr[L - 1 + h]) == direct


@settings(max_examples=40)
@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=60), st.booleans())
def test_dense_transform_squares_symmetric_counts(half, odd):
    # Mirrored counts take the squaring branch: one operand, passed twice.
    counts = half + half[-2::-1] if odd else half + half[::-1]
    assert counts == counts[::-1]
    test_dense_transform_matches_naive_convolution.hypothesis.inner_test(counts)


def test_dense_transform_traps_a_narrow_width():
    # Width 1 cannot hold r(0) = 25: the product has more digits than its
    # one group, which the transform reports rather than truncating.
    with pytest.raises(InvariantViolation):
        _dense_correlation(np.array([5], dtype=np.int64), 1)


# --- r_N tables -----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_r_table_equals_oracle(n):
    assert dict(r_table(n).items()) == brute_r_table(n)


@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_r_table_mass_symmetry_support(n):
    table = r_table(n)
    assert table.total() == (2 * n + 1) ** 4
    assert all(table.value(-h) == v for h, v in table.items())
    assert table.support()[0] == -2 * n * n
    assert table.support()[-1] == 2 * n * n
    assert table.value(10**9) == 0  # off support
    assert table == r_table(n) and table != r_table(n + 1)


def test_r_zero_three_routes_agree():
    for n in (1, 2, 3, 10, 40):
        closed = r_zero(n)
        assert closed == r_table(n).value(0)
        if n <= 3:
            assert closed == brute_r_table(n)[0]


def test_r_zero_pinned_large():
    assert r_zero(2000) == 343525249


def test_r_zero_gcd_sum_identity():
    # Dependent pairs of nonzero vectors on a common line through the
    # origin, counted by gcd: 16 * sum_{a,b<=N} gcd(a, b).
    for n in range(1, 301):
        a = np.arange(1, n + 1, dtype=np.int64)
        gcd_sum = int(np.gcd.outer(a, a).sum())
        assert r_zero(n) == 2 * (2 * n + 1) ** 2 - 1 + 16 * gcd_sum


def test_r_zero_budget_refusal():
    with pytest.raises(BudgetExceeded):
        r_zero(10**15)
    with pytest.raises(BudgetExceeded):
        r_zero(10**6, WorkBudget(10**4))


def test_r_zero_size_law():
    n = 2000
    predicted = 9.7268336 * n * n * math.log(n)
    assert abs(r_zero(n) - predicted) <= 20 * n * n
    # slack in the n^2 window dwarfs any 5th-decimal wobble in the constant
    assert abs(r_zero(n) - 9.72682 * n * n * math.log(n)) <= 20 * n * n


def test_r_table_budget_refusal():
    with pytest.raises(BudgetExceeded):
        r_table(500, WorkBudget(10**6))


def test_r_table_charges_its_digits_before_building_the_counts(monkeypatch):
    # (2N^2 + 1) digit groups of len(str(r_N(0))) digits each.
    n = 40
    charge = (2 * n * n + 1) * len(str(r_zero(n)))
    assert r_table(n, WorkBudget(charge)) == r_table(n)

    def unexpected(n):
        raise AssertionError("product_distribution ran")

    monkeypatch.setattr(divisor, "product_distribution", unexpected)
    with pytest.raises(BudgetExceeded) as exc:
        r_table(n, WorkBudget(charge - 1))
    assert exc.value.states == charge


def test_r_table_past_the_transform_cap_raises_value_error(monkeypatch):
    # The product width 2N^2 passes the dense transform's fixed memory cap
    # at N = 1001; the refusal comes before the product distribution is
    # built, and no budget lifts it.
    def unexpected(n):
        raise AssertionError("product_distribution ran")

    monkeypatch.setattr(divisor, "product_distribution", unexpected)
    for budget in (None, WorkBudget(10**30)):
        with pytest.raises(ValueError, match="memory cap") as exc:
            r_table(1001, budget)
        assert not isinstance(exc.value, BudgetExceeded)


def _table_digest(ns):
    digest = hashlib.sha256()
    for n in ns:
        digest.update(r_table(n).r.astype("<i8").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "ns, want",
    [
        (range(1, 61), "dc62a1854223fa5a1e372164bd03885b48b3cc43078661c9a0dfaacca0da043f"),
        ([175], "add26cabb195dbae03ada8660cff7448d52a64bf50059b89f3f602dbcec197c2"),
        ([1000], "90e410f398f3dcb494bf7ace0a0a2c9863c0f225095dfa81b20960658e16e977"),
    ],
    ids=["1-60", "175", "1000"],
)
def test_r_table_pinned_digests(ns, want):
    # SHA-256 of the little-endian int64 tables, recorded from the transform
    # of the counts against their reversal, before symmetric counts were
    # squared.
    assert _table_digest(ns) == want


def test_table_n_mismatch_rejected():
    table = r_table(3)
    with pytest.raises(ValueError):
        moment(4, 2, table=table)
    with pytest.raises(ValueError):
        divisor_bound_check(4, 1, table=table)


# --- moments --------------------------------------------------------------------


def test_first_moment_is_total_mass():
    for n in (1, 2, 7):
        assert moment(n, 1) == (2 * n + 1) ** 4


def test_second_moment_anchor():
    assert moment(1, 2) == 1921


def test_second_moment_against_oracle_table():
    for n in (2, 3):
        assert moment(n, 2) == sum(v * v for v in brute_r_table(n).values())


def test_moment_reuses_table():
    table = r_table(6)
    assert moment(6, 3, table=table) == moment(6, 3)
    with pytest.raises(ValueError):
        moment(6, 0)


@pytest.mark.parametrize(
    "n, i2, i3",
    [
        # recorded from the big-integer (Kronecker) squaring route; at
        # N = 175 the cubes sum in two int64 halves, at N = 250 they pass
        # 2^63 and sum as Python integers
        (100, 179441672319297, 25977720736989318753),
        (175, 5066168742371777, 2221061468986668708993),
        (250, 42902385604019969, 38379253343915444448321),
    ],
)
def test_moments_pinned_from_the_squaring_route(n, i2, i3):
    # Under the default budget: the transform is charged its digits,
    # 125001 * 7 = 8.8e5 at N = 250.
    table = r_table(n)
    assert moment(n, 2, table=table) == i2
    assert moment(n, 3, table=table) == i3


def test_third_moment_normalization_window():
    # I_3(N)/(2N)^8 sits comfortably under 50 and drifts slowly.
    vals = [moment(n, 3) / (2 * n) ** 8 for n in (20, 35, 50)]
    assert all(v <= 50 for v in vals)
    assert max(vals) <= 2 * min(vals)


# --- per-h bound ratios -----------------------------------------------------------


def test_divisor_bound_check_by_hand():
    # r_1(1) = 20 and the divisor sum for h = 1, N = 1 is exactly 1.
    assert divisor_bound_check(1, 1) == Fraction(20, 1)
    assert divisor_bound_check(1, -1) == Fraction(20, 1)
    with pytest.raises(ValueError):
        divisor_bound_check(1, 0)


def test_divisor_bound_check_at_a_huge_h(time_limit):
    # Off the support r_N(h) = 0; the divisor sum tries at most N divisors,
    # not the ~10^15 a walk up to sqrt(h) would.
    with time_limit(10):
        assert divisor_bound_check(5, 10**30) == 0
        assert divisor_bound_check(5, -(10**24)) == 0


def test_divisor_bound_ratio_stays_bounded():
    n = 30
    table = r_table(n)
    worst = max(
        divisor_bound_check(n, h, table=table)
        for h in table.support()
        if h != 0
    )
    assert worst <= 16  # empirical headroom; the shape is what matters


# --- classical divisor correlation ------------------------------------------------


def test_classic_divisor_correlation_matches_direct():
    for x, h in ((10, 0), (10, 1), (50, 3), (200, 7)):
        direct = sum(divisor_tau(m) * divisor_tau(m + h) for m in range(1, x + 1))
        assert classic_divisor_correlation(x, h) == direct


def test_classic_divisor_correlation_validation():
    with pytest.raises(ValueError):
        classic_divisor_correlation(0, 1)
    with pytest.raises(ValueError):
        classic_divisor_correlation(10, -1)
    with pytest.raises(ValueError):
        classic_divisor_correlation(10**7, 1)


def test_divisor_sieve_against_divisor_tau():
    for x in (1, 2, 3, 4, 99, 100, 2000):
        tau = _divisor_sieve(x, 0)
        assert tau.dtype == np.int64 and tau[0] == 0
        assert tau[1:].tolist() == [divisor_tau(m) for m in range(1, x + 1)]
        # sigma against the one-pass-per-integer sieve it replaced
        sigma = np.zeros(x + 1, dtype=np.int64)
        for d in range(1, x + 1):
            sigma[d::d] += d
        assert np.array_equal(_divisor_sieve(x, 1), sigma)


def test_partial_sums():
    assert partial_sum_check(1, 1) == 1
    assert partial_sum_check(4, 1) == Fraction(67, 48)
    exact = partial_sum_check(1000, 1)
    assert partial_sum_float(1000, 1) == pytest.approx(float(exact), rel=1e-12)
    # X = 10^4 is already within a percent of the zeta(2) limit.
    assert partial_sum_float(10**4, 1) == pytest.approx(float(zeta_value(2)), abs=3e-3)
    with pytest.raises(ValueError):
        partial_sum_check(0, 1)
    with pytest.raises(ValueError):
        partial_sum_check(10, 5)


# --- finite sets ------------------------------------------------------------------


def test_finite_set_construction():
    s = FiniteRealSet.from_values([3, 1, Fraction(1, 2)])
    assert s.elements == (Fraction(1, 2), Fraction(1), Fraction(3))
    assert len(s) == 3
    assert FiniteRealSet.from_values(s) is s
    with pytest.raises(ValueError):
        FiniteRealSet.from_values([])
    with pytest.raises(ValueError):
        FiniteRealSet.from_values([1, 2, 2])


def test_parse_set_file(tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("# heading\n1\n-4\n\n22/7  # pi-ish\n0\n")
    s = parse_set_file(str(path))
    assert set(s.elements) == {Fraction(1), Fraction(-4), Fraction(22, 7), Fraction(0)}


@pytest.mark.parametrize(
    "body, message",
    [
        ("1\nx\n", "bad entry"),
        ("1\n1/0\n", "bad entry"),
        ("5\n5\n", "duplicate"),
        ("# nothing\n", "no elements"),
    ],
)
def test_parse_set_file_rejects(tmp_path, body, message):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    with pytest.raises(ValueError, match=message):
        parse_set_file(str(path))


def test_r_set_small_cases():
    # A = {1, 2, 3}: product multiset {1, 2, 2, 3, 3, 4, 6, 6, 9}.
    assert r_set([1, 2, 3], 0) == 1 + 4 + 4 + 1 + 4 + 1
    assert r_set([1, 2, 3], 1) == 1 * 2 + 2 * 2 + 2 * 1 + 1 * 0 + 0 + 0  # m, m-1 pairs
    assert r_set([1, 2, 3], 100) == 0
    assert r_set([Fraction(1, 2), 1], Fraction(3, 4)) == 1  # 1*1 - (1/2)^2
    assert r_set([1, 2], Fraction(1, 3)) == 0  # never representable


def test_r_set_agrees_with_lemma_center():
    vals = [-3, 1, 2, 5, 8]
    assert lemma61_check(vals)["r0"] == r_set(vals, 0)
    assert lemma61_check([7]) == {"sup_r": 1, "r0": 1, "i3": 1}


def test_doubling_report():
    rep = doubling_report([1, 2, 3, 4])
    assert (rep.size, rep.sumset_size) == (4, 7)
    assert rep.ratio == Fraction(7, 4)
    gp = doubling_report([1, 2, 4, 8])
    assert gp.sumset_size == 10
    assert "ratio" in repr(gp)


def test_size_limits():
    big = list(range(2001))
    with pytest.raises(ValueError):
        r_set(big, 0)
    with pytest.raises(ValueError):
        doubling_report(big)
    with pytest.raises(ValueError):
        lemma61_check(list(range(501)))


# --- lemma61_check route coverage ---------------------------------------------------


def naive_correlation_stats(ints):
    """Reference reimplementation: all pairwise product differences, counted
    with a plain dict."""
    products: dict = {}
    for a in ints:
        for b in ints:
            products[a * b] = products.get(a * b, 0) + 1
    diffs: dict = {}
    for m1, c1 in products.items():
        for m2, c2 in products.items():
            diffs[m1 - m2] = diffs.get(m1 - m2, 0) + c1 * c2
    return {
        "sup_r": max(diffs.values()),
        "r0": diffs[0],
        "i3": sum(v**3 for v in diffs.values()),
    }


ROUTES = ("_dense_correlation", "_fingerprint_pair_sums")


@pytest.fixture
def routes_taken(monkeypatch):
    """The names of the correlation routes each call runs, in order."""
    taken = []
    for name in ROUTES:
        def spy(*args, _inner=getattr(divisor, name), _name=name):
            taken.append(_name)
            return _inner(*args)
        monkeypatch.setattr(divisor, name, spy)
    return taken


def _seeded_set(seed, size, bound):
    rng = np.random.default_rng(seed)
    return [int(v) for v in rng.choice(2 * bound + 1, size=size, replace=False) - bound]


@pytest.mark.parametrize(
    "route, vals",
    [
        # narrow span, many distinct products
        pytest.param("_dense_correlation", _seeded_set(8, 30, 40), id="dense-30-in-40"),
        pytest.param("_dense_correlation", list(range(1, 25)), id="dense-1-to-24"),
        # span / s^2 = 0.0246, 0.0252 and 0.0644: either side of
        # _DENSE_SPAN_PER_PAIR = 0.025, and inside the band (0.025, 0.07]
        # the transform took while its rival was the argsort
        pytest.param("_dense_correlation", _seeded_set(7, 20, 15), id="dense-span-0.0246s2"),
        pytest.param("_fingerprint_pair_sums", _seeded_set(1, 30, 40), id="sort-span-0.0252s2"),
        pytest.param("_fingerprint_pair_sums", _seeded_set(6, 14, 20), id="sort-span-0.0644s2"),
        # wide span, every product within int64: the sort on exact
        # differences (the 12 values in 2e9 have products spanning 8e18)
        pytest.param("_fingerprint_pair_sums", [-7, -2, 1, 3, 4, 9, 12], id="int64-7-small"),
        pytest.param("_fingerprint_pair_sums", _seeded_set(2, 25, 10**6), id="int64-25-in-1e6"),
        pytest.param(
            "_fingerprint_pair_sums", _seeded_set(3, 12, 2 * 10**9), id="int64-12-in-2e9"
        ),
        # products past 2^62: the sort, on residues
        pytest.param("_fingerprint_pair_sums", [3 * 2**k for k in range(32)], id="fp-3x2k"),
        # many equal differences: shared buckets whose exact differences agree
        pytest.param("_fingerprint_pair_sums", [2**70 * i for i in range(1, 20)], id="fp-ap"),
        pytest.param(
            "_fingerprint_pair_sums",
            [v * 2**40 + 1 for v in _seeded_set(4, 15, 10**6)],
            id="fp-15-shifted",
        ),
    ],
)
def test_each_route_matches_naive(routes_taken, route, vals):
    assert lemma61_check(vals) == naive_correlation_stats(vals)
    assert routes_taken == [route]


def test_fingerprint_route_separates_forced_collisions(routes_taken):
    # 2^61 - 30 = 1 + p for the fingerprint prime p = 2^61 - 31, so the
    # products 1, 2^61 - 30 and (2^61 - 30)^2 differ pairwise by distinct
    # multiples of p, all in one bucket; the larger sets mix such buckets
    # with ordinary ones.
    for vals in ([1, 2**61 - 30], [1, 2, 2**61 - 30, 2**61 - 29], [-1, 1, 2**61 - 30]):
        assert lemma61_check(vals) == naive_correlation_stats(vals)
    assert set(routes_taken) == {"_fingerprint_pair_sums"}


def test_int64_spans_sort_on_exact_keys(monkeypatch):
    # Products spanning past the fingerprint prime P but below 2^63 are
    # sorted on the exact keys m - lo, not on residues mod P.
    vals = _seeded_set(3, 12, 2 * 10**9)
    products = sorted({a * b for a in vals for b in vals})
    assert divisor._FINGERPRINT_PRIME < products[-1] - products[0] < 2**63
    keys = []
    inner = divisor._pair_differences

    def spy(values, weights):
        keys.append(values.tolist())
        return inner(values, weights)

    monkeypatch.setattr(divisor, "_pair_differences", spy)
    assert lemma61_check(vals) == naive_correlation_stats(vals)
    assert keys == [[m - products[0] for m in products]]


def naive_pair_sums(values, weights):
    """{h: r(h)} for h > 0 by a double loop over the distinct values."""
    sums = Counter()
    for i, (m1, c1) in enumerate(zip(values, weights)):
        for m2, c2 in zip(values[i + 1 :], weights[i + 1 :]):
            sums[m2 - m1] += c1 * c2
    return dict(sums)


@pytest.mark.parametrize(
    "values",
    [
        # around the fingerprint prime P the keys are exact int64; mod P the
        # differences P and P + 1 would fall to 0 and 1
        [0, 1, divisor._FINGERPRINT_PRIME],
        [0, 1, divisor._FINGERPRINT_PRIME + 1],
        [0, 1, divisor._FINGERPRINT_PRIME - 1],
        # hi - lo = 2^63 - 1: the largest span with exact int64 keys
        [0, 1, 2**63 - 1],
        # hi - lo = 2^63: the keys are residues mod P (2^63 = 4P + 124)
        [0, 1, 2**63],
        # hi - lo = 5P + 1 > 2^63: the differences 1 and 5P + 1 share the
        # residue 1, so their bucket must be split by the exact comparison
        [0, 1, 5 * divisor._FINGERPRINT_PRIME + 1],
    ],
    ids=["width-P", "width-P+1", "width-P-1", "width-2^63-1", "width-2^63", "width-5P+1"],
)
def test_sort_at_the_exactness_boundary(values):
    weights = np.array([3, 5, 7], dtype=np.int64)
    got = divisor._fingerprint_pair_sums(values, weights)
    want = naive_pair_sums(values, weights.tolist())
    assert sorted(got.tolist()) == sorted(want.values())
    assert len(got) == len(want) == 3


def test_argsort_route_matches_naive(monkeypatch):
    # 12 well-spread values in +-1e9: their products span ~2e18, exact in
    # int64, but too wide to pack a difference with its weight product, so
    # the differences are argsorted (_group_sums).
    rng = np.random.default_rng(123)
    vals = [int(v) for v in rng.choice(2_000_000_001, size=12, replace=False) - 10**9]
    calls = []
    inner = divisor._group_sums

    def spy(keys, prods):
        calls.append(len(keys))
        return inner(keys, prods)

    monkeypatch.setattr(divisor, "_group_sums", spy)
    got = lemma61_check(vals)
    support = len({a * b for a in vals for b in vals})
    assert calls == [support * (support - 1) // 2]
    assert got == naive_correlation_stats(vals)


def test_dense_route_consistency():
    # range(1, 260): >5000 distinct products in a narrow band, so the dense
    # transform runs; check it against r_set spot values.
    vals = list(range(1, 260))
    got = lemma61_check(vals)
    assert got["r0"] == r_set(vals, 0)
    for h in (1, 2, 360, 10_000):
        assert got["sup_r"] >= r_set(vals, h)
    assert got["sup_r"] <= got["r0"]


def test_broken_correlation_raises_invariant_violation(monkeypatch):
    # A transform that loses mass at h = 1 breaks the mass identity; a
    # closed-form r(0) that disagrees with the table breaks the centre one.
    inner = divisor._dense_correlation

    def broken(counts, width):
        out = inner(counts, width)
        out[len(counts)] -= 1
        return out

    monkeypatch.setattr(divisor, "_dense_correlation", broken)
    with pytest.raises(InvariantViolation):
        r_table(3)
    with pytest.raises(InvariantViolation):
        lemma61_check(list(range(1, 25)))
    monkeypatch.undo()
    monkeypatch.setattr(divisor, "r_zero", lambda n, budget=None: 1)
    with pytest.raises(InvariantViolation):
        r_table(3)


def test_rational_sets_are_scaled_exactly():
    # Scaling a set leaves every correlation statistic unchanged; so do
    # denominators, after clearing them.
    base = [1, 2, 3, 5, 9]
    scaled = [Fraction(v, 7) for v in base]
    assert lemma61_check(base) == lemma61_check(scaled)


def test_lemma61_budget_refusals():
    with pytest.raises(BudgetExceeded):
        lemma61_check([1, 2, 3], WorkBudget(1))


def test_lemma61_memory_caps_raise_value_error():
    # Large support, huge spread: every exact route is past its fixed
    # memory cap, which no budget lifts, so the refusal names the caps.
    rng = np.random.default_rng(5)
    vals = [int(v) for v in rng.choice(2_000_000_001, 250, replace=False) - 10**9]
    for budget in (None, WorkBudget(10**30)):
        with pytest.raises(ValueError, match="memory caps") as exc:
            lemma61_check(vals, budget)
        assert not isinstance(exc.value, BudgetExceeded)
        assert f"{divisor._MAX_SORT_PAIRS} sorted pairs" in str(exc.value)
        assert f"dense span of {divisor._MAX_DENSE_SPAN}" in str(exc.value)


def test_geometric_progressions_peak_at_zero():
    for ratio in (2, Fraction(3, 2)):
        aset = [ratio**k for k in range(40)]
        res = lemma61_check(aset)
        assert res["sup_r"] == res["r0"]


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "int64"])
@pytest.mark.parametrize(
    "width, weights, packed",
    [
        # weights 3, 5, 7: the largest product 35 takes b = 6 bits, so the
        # packed keys fit int64 while (width + 1) << 6 < 2^63
        (2**57 - 2, [3, 5, 7], True),
        (2**57 - 1, [3, 5, 7], False),
        # the widest span the dense transform takes, with weights at the
        # 2 * 500 - 1 = 999 that c(0) reaches in a 500-element set holding
        # 0: every input the transform may take also packs
        (divisor._MAX_DENSE_SPAN, [999, 999, 999], True),
    ],
    ids=["span<<b-below-2^63", "span<<b-at-2^63", "widest-dense-span"],
)
def test_packed_sort_at_the_int64_boundary(monkeypatch, as_array, width, weights, packed):
    values = [0, 1, width]
    b = (weights[-1] * weights[-2]).bit_length()
    assert ((width + 1) << b < 2**63) == packed
    weights = np.array(weights, dtype=np.int64)
    calls = []
    inner = divisor._group_sums

    def spy(keys, prods):
        calls.append(len(keys))
        return inner(keys, prods)

    monkeypatch.setattr(divisor, "_group_sums", spy)
    got = divisor._fingerprint_pair_sums(
        np.array(values, dtype=np.int64) if as_array else values, weights
    )
    want = naive_pair_sums(values, weights.tolist())
    assert sorted(got.tolist()) == sorted(want.values())
    assert calls == ([] if packed else [3])


def test_packed_sums_wider_than_their_bits():
    # 49 pairs share each of the small differences, so a group's sum of
    # weight products runs far past the b bits one product is packed in.
    rng = np.random.default_rng(11)
    values = (np.arange(50, dtype=np.int64) * 2**30).tolist()
    weights = rng.integers(1, 1000, size=50).astype(np.int64)
    got = divisor._fingerprint_pair_sums(values, weights)
    want = naive_pair_sums(values, weights.tolist())
    assert sorted(got.tolist()) == sorted(want.values())
    assert max(want.values()) >= 2 ** int(weights.max() ** 2).bit_length()


def naive_r_set(ints, t):
    """r_A(t) by a loop over every quadruple."""
    return sum(1 for a in ints for b in ints for c in ints for d in ints if a * b - c * d == t)


# max|a| = 2^31 - 1 keeps every product within +-2^62 (int64 arrays); 2^31
# reaches 2^62 (Python ints).
INT64_EDGE_SETS = [
    pytest.param([-(2**31 - 1), -5, 0, 3, 2**31 - 1], id="max-2^31-1"),
    pytest.param([-(2**31 - 1), 2, 7, 2**31 - 2], id="max-2^31-1-asym"),
    pytest.param([-(2**31), -5, 0, 3, 2**31 - 1], id="min--2^31"),
    pytest.param([-3, 1, 4, 2**31], id="max-2^31"),
]


@pytest.mark.parametrize("vals", INT64_EDGE_SETS)
def test_product_counts_on_either_side_of_int64(vals):
    values, counts = divisor._product_counts(vals)
    fits = max(abs(v) for v in vals) < 2**31
    assert values.dtype == (np.int64 if fits else object)
    want = Counter(a * b for a in vals for b in vals)
    assert [int(v) for v in values] == sorted(want)
    assert counts.dtype == np.int64
    assert counts.tolist() == [want[m] for m in sorted(want)]


@pytest.mark.parametrize("vals", INT64_EDGE_SETS)
def test_lemma61_and_r_set_on_either_side_of_int64(vals):
    assert lemma61_check(vals) == naive_correlation_stats(vals)
    products = sorted({a * b for a in vals for b in vals})
    width = products[-1] - products[0]
    targets = {0, 1, -1, width, -width, width + 1, -width - 1, 2**64, -(2**64)}
    targets |= {m1 - m2 for m1 in products[:3] + products[-3:] for m2 in products}
    for t in sorted(targets):
        assert r_set(vals, t) == naive_r_set(vals, t), t


def test_r_set_matches_the_quadruple_loop():
    rng = np.random.default_rng(8)
    for size, bound in ((6, 10), (9, 1000), (8, 10**12)):
        vals = _seeded_set(int(rng.integers(1000)), size, bound)
        products = {a * b for a in vals for b in vals}
        for t in {m1 - m2 for m1 in products for m2 in list(products)[:5]} | {7, -7}:
            assert r_set(vals, t) == naive_r_set(vals, t)
    scaled = [Fraction(1, 3), Fraction(1, 2), 2, 5]
    for t in (0, Fraction(1, 6), Fraction(-35, 36), Fraction(1, 7), 24):
        want = sum(
            1 for a in scaled for b in scaled for c in scaled for d in scaled
            if a * b - c * d == t
        )
        assert r_set(scaled, t) == want
