"""Arithmetic building blocks: totients, primitive directions, product
distributions, and the zeta constants everything downstream normalizes by.
"""

import itertools
import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import commucount.core as core
from commucount.core import (
    _SIEVE_CAP,
    dependent_pair_constant,
    divisor_tau,
    is_prime,
    main_term_constant_2x2,
    pairwise_fraction_sum,
    power_sum_work,
    primitive_directions,
    product_distribution,
    totient,
    totient_power_sums,
    totient_sieve,
    zeta_value,
)

# Reference digits from standard tables (OEIS A013661 / A002117).
ZETA2_30 = Decimal("1.64493406684822643647241516665")
ZETA3_30 = Decimal("1.20205690315959428539973816151")


def test_zeta_pins():
    assert abs(zeta_value(2, 30) - ZETA2_30) < Decimal("1e-28")
    assert abs(zeta_value(3, 30) - ZETA3_30) < Decimal("1e-28")


def test_zeta_matches_naive_tail_bound():
    # zeta(4) = pi^4/90; compare against float math to its full precision.
    assert float(zeta_value(4)) == pytest.approx(math.pi**4 / 90, rel=1e-14)


def test_zeta_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 45
    for s in (2, 3, 4, 7):
        reference = Decimal(mpmath.nstr(mpmath.zeta(s), 40))
        assert abs(zeta_value(s, 40) - reference) < Decimal("1e-38")


def test_zeta_rejects_s_below_2():
    with pytest.raises(ValueError):
        zeta_value(1)


def test_derived_constants():
    # 10*zeta(2)/(3*zeta(3)) and 16/zeta(2), straight from the pinned values.
    assert float(main_term_constant_2x2()) == pytest.approx(4.5614425920673529, abs=1e-12)
    assert float(dependent_pair_constant()) == pytest.approx(9.7268336, abs=1e-6)


@pytest.mark.parametrize(
    "u, phi", [(1, 1), (2, 1), (6, 2), (10, 4), (12, 4), (97, 96), (360, 96)]
)
def test_totient_known_values(u, phi):
    assert totient(u) == phi


def test_totient_sieve_agrees_with_single():
    phi = totient_sieve(400)
    assert phi[0] == 0
    for u in range(1, 401):
        assert int(phi[u]) == totient(u)
    # prime powers, and prime factors above sqrt(limit)
    phi = totient_sieve(10**4)
    for u in (64, 81, 97, 9973, 2 * 4999, 3 * 3299, 10**4):
        assert int(phi[u]) == totient(u)


def test_totient_divisor_sum_identity():
    # sum_{d | n} phi(d) = n
    for n in range(1, 200):
        assert sum(totient(d) for d in range(1, n + 1) if n % d == 0) == n


def test_totient_rejects_zero():
    with pytest.raises(ValueError):
        totient(0)


def test_is_prime_small():
    primes = [p for p in range(60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)  # 641 * 6700417


def _trial_division_is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    sieve = [_trial_division_is_prime(p) for p in range(10**5)]
    assert [is_prime(p) for p in range(10**5)] == sieve
    assert not is_prime(-7)


def test_is_prime_large():
    assert is_prime(10**18 + 3)
    assert is_prime(2**61 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))  # above 3.3e24, a base is a witness
    with pytest.raises(ValueError):
        is_prime(2**89 - 1)  # prime, but not provably so by these bases
    # Strong pseudoprimes to every prime base up to 23 and up to 37.
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert not is_prime((2**31 - 1) * (2**61 - 1))


def test_divisor_tau():
    assert [divisor_tau(n) for n in range(1, 13)] == [1, 2, 2, 3, 2, 4, 2, 4, 3, 4, 2, 6]
    with pytest.raises(ValueError):
        divisor_tau(0)


# --- primitive directions ---------------------------------------------------


def test_direction_count_is_totient_sum():
    # 4 directions at m = 1, then 4*phi(m) for each m >= 2.
    for n in (1, 2, 3, 10, 50):
        dirs = primitive_directions(n)
        expected = 4 + sum(4 * totient(m) for m in range(2, n + 1))
        assert len(dirs) == expected
        assert len(set(dirs)) == len(dirs)


def test_every_grid_point_hits_exactly_one_direction():
    """The canonical directions with m <= n partition the nonzero grid points
    of [-n, n]^2 into lines through the origin."""
    n = 12
    hits = Counter(
        (z * d.u, z * d.v)
        for d in primitive_directions(n)
        for z in range(-n, n + 1)
        if z != 0 and max(abs(z * d.u), abs(z * d.v)) <= n
    )
    grid = {(x, y) for x in range(-n, n + 1) for y in range(-n, n + 1)} - {(0, 0)}
    assert set(hits) == grid
    assert set(hits.values()) == {1}
    # ... and each direction owns 2*(n // m) nonzero points.
    assert len(grid) == sum(2 * (n // d.m) for d in primitive_directions(n))


# --- product distribution ----------------------------------------------------


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 20])
def test_product_distribution_invariants(n):
    counts = product_distribution(n)
    side = 2 * n + 1
    assert counts.dtype == np.int64 and counts.shape == (2 * n * n + 1,)
    assert counts.sum() == side * side
    assert counts[n * n] == (4 * n + 1 if n else 1)
    assert np.array_equal(counts, counts[::-1])


def test_product_distribution_matches_direct_count():
    n = 9
    direct = np.zeros(2 * n * n + 1, dtype=np.int64)
    for a in range(-n, n + 1):
        for b in range(-n, n + 1):
            direct[a * b + n * n] += 1
    assert np.array_equal(product_distribution(n), direct)


def test_product_distribution_chunking_boundary():
    # n = 2001: 8,008,003 entries; the products 1 and n^2 have two
    # representations each.
    n = 2001
    counts = product_distribution(n)
    assert counts.sum() == (2 * n + 1) ** 2
    assert counts[1 + n * n] == 2  # (1,1) and (-1,-1)
    assert counts[2 * n * n] == 2  # (n,n) and (-n,-n)


# --- exact summation ----------------------------------------------------------


def test_pairwise_fraction_sum_matches_builtin():
    values = [Fraction(1, k) for k in range(1, 300)]
    assert pairwise_fraction_sum(values) == sum(values)
    assert pairwise_fraction_sum([]) == 0
    assert pairwise_fraction_sum([Fraction(3, 7)]) == Fraction(3, 7)


@given(st.lists(st.fractions(max_denominator=50), max_size=40))
def test_pairwise_fraction_sum_property(values):
    assert pairwise_fraction_sum(values) == sum(values, Fraction(0))


def exact_power_prefix(limit, k):
    phi = totient_sieve(limit).astype(object)
    return np.cumsum(phi * np.arange(limit + 1, dtype=object) ** k)


def test_power_sums_against_full_sieve_at_every_block_end():
    # At n = 10^6 the sums come from the sieve up to the cutoff and from the
    # recursion above it; the reference is one exact prefix sum over all m.
    n = 10**6
    sums = totient_power_sums(n, 2)
    assert sums.ends == sorted({2 * n // j for j in range(2, 2 * n + 1)})
    for k in range(3):
        prefix = exact_power_prefix(n, k)
        assert [row[k] for row in sums.sums] == [prefix[e] for e in sums.ends]


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 333, 4096])
def test_power_sums_small_n(n):
    sums = totient_power_sums(n, 2)
    assert sums.ends == sorted({2 * n // j for j in range(2, 2 * n + 1)})
    for k in range(3):
        prefix = exact_power_prefix(n, k)
        assert [row[k] for row in sums.sums] == [prefix[e] for e in sums.ends]
    assert totient_power_sums(n, 0).sums == [row[:1] for row in sums.sums]


@pytest.mark.parametrize("n", [1, 10, 1000, 54321, 10**6, 3 * 10**6])
@pytest.mark.parametrize("degree", [0, 2])
def test_power_sum_work_bounds_the_steps(n, degree):
    steps = totient_power_sums(n, degree).steps
    work = power_sum_work(n, degree)
    assert steps <= work <= 2 * steps


def walked_blocks(n):
    """Blocks of d the recursion visits for n: one per distinct v // d,
    d >= 2, at every block end v above the table, counted by walking."""
    cut = min(n, _SIEVE_CAP)
    blocks = 0
    for v in totient_power_sums(n, 0).ends:
        d = 2 if v > cut else v + 1
        while d <= v:
            d = v // (v // d) + 1
            blocks += 1
    return blocks


@pytest.mark.parametrize("n", [10**5, 3 * 10**5, 10**6, 3 * 10**6])
def test_lower_degrees_are_prefixes_of_degree_two(n):
    # Above the table every degree shares one walk over the blocks; each
    # degree's sums must still be the leading entries of the degree-2 rows,
    # and each charges degree + 1 steps per block visited.
    full = totient_power_sums(n, 2)
    blocks = walked_blocks(n)
    assert blocks > 0
    assert full.steps == _SIEVE_CAP + 1 + 3 * blocks
    for degree in (0, 1):
        sums = totient_power_sums(n, degree)
        assert sums.ends == full.ends
        assert sums.sums == [row[: degree + 1] for row in full.sums]
        assert sums.steps == _SIEVE_CAP + 1 + (degree + 1) * blocks


@pytest.fixture(scope="module")
def exact_prefix_sums():
    """S_k(v) for k = 0..2 and v = 0.._SIEVE_CAP as lists of Python ints,
    from one fresh sieve of the table's length."""
    phi = totient_sieve(_SIEVE_CAP).tolist()
    return [list(itertools.accumulate(f * m**k for m, f in enumerate(phi))) for k in range(3)]


def check_against_exact(ns, low):
    """Every degree's sums at every block end up to the table's reach are
    the exact prefix sums `low`, lower degrees are the leading entries of
    degree two, and no call takes more steps than it is charged."""
    for n in ns:
        sums = [totient_power_sums(n, degree) for degree in range(3)]
        cut = min(n, _SIEVE_CAP)
        for end, row in zip(sums[2].ends, sums[2].sums):
            if end <= cut:
                assert list(row) == [low[k][end] for k in range(3)], (n, end)
        for degree in (0, 1):
            assert sums[degree].ends == sums[2].ends, n
            assert sums[degree].sums == [row[: degree + 1] for row in sums[2].sums], n
        for degree in range(3):
            assert sums[degree].steps <= power_sum_work(n, degree), (n, degree)


def test_power_sums_from_the_table_match_a_fresh_sieve_up_to_2000(exact_prefix_sums):
    # For n <= 2000 every block end is read from the table, and the charge
    # is the table entries up to n alone.
    check_against_exact(range(1, 2001), exact_prefix_sums)
    assert all(power_sum_work(n, 2) == n + 1 for n in range(1, 2001))


def test_power_sums_from_the_table_match_a_fresh_sieve_up_to_1e7(exact_prefix_sums):
    rng = random.Random(7)
    ns = {round(10 ** rng.uniform(3.3, 7)) for _ in range(8)} | {10**7}
    check_against_exact(sorted(ns), exact_prefix_sums)


def record_sieves(monkeypatch):
    """Empty the prefix table and record the limit of every sieve after."""
    limits = []
    real = core.totient_sieve

    def sieve(limit):
        limits.append(limit)
        return real(limit)

    monkeypatch.setattr(core, "totient_sieve", sieve)
    core._prefix_table.cache_clear()
    return limits


def test_no_call_sieves_past_its_own_cutoff(monkeypatch):
    # Every call's cutoff is the one table's, _SIEVE_CAP: whatever the call
    # order, the first call sieves the whole table, no call sieves past it,
    # and no call's steps depend on what ran first.
    limits = record_sieves(monkeypatch)
    for n in (1, 10**6, 10, 10**5, 2000):
        for degree in range(3):
            assert totient_power_sums(n, degree).steps <= power_sum_work(n, degree)
    assert limits == [_SIEVE_CAP]
    assert core._prefix_table().shape == (3, _SIEVE_CAP + 1)


def test_a_shorter_cutoff_reuses_the_table(monkeypatch):
    # The table a call above the cap builds is read, never rebuilt, by calls
    # at shorter n and at longer n alike.
    limits = record_sieves(monkeypatch)
    totient_power_sums(10**5, 2)
    assert limits == [_SIEVE_CAP]
    for n in (10**4, 5000, 2000, 100, 1):
        totient_power_sums(n, 0)
    totient_power_sums(3 * 10**6, 1)
    assert limits == [_SIEVE_CAP]
    assert core._prefix_table().shape == (3, _SIEVE_CAP + 1)


def test_power_sums_reject_bad_arguments():
    with pytest.raises(ValueError):
        totient_power_sums(0, 2)
    with pytest.raises(ValueError):
        totient_power_sums(5, 3)


def test_totient_sieve_rejects_negative():
    with pytest.raises(ValueError):
        totient_sieve(-1)
