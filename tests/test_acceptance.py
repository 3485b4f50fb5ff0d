"""Acceptance battery: twelve independently stated criteria, each run at its
stated scale and tolerance, printing one ``[PASS]``/``[FAIL]`` line per
criterion (visible with ``pytest -s`` or in any failure report; ``pytest -v``
additionally shows one test per criterion).

Runtime is dominated by the p-adic oracle sweep (criterion 6, every modulus
with p^6n <= 10^9, 4.7-4.8 s) and the size-500 progression correlations
(criterion 11, 2.1-2.6 s); the whole battery took 9.7 s on one core of a
2-vCPU Xeon.  Criterion 9 repeats the 3x3 classification at N = 2 only when
COMMUCOUNT_ACCEPT_FULL=1 is set: that point classifies 10803 orbits of
classes A + tI (about 2 s on one core) and checks their total against the
oracle, which enumerates 5^9 * (5^5 + 5^4) ~ 7.3e9 states (190 s on one
core; the whole test took 65-112 s with two workers on the same machine).
"""

import os

import pytest

from commucount.verify import (
    criterion_classification,
    criterion_demo_4x4,
    criterion_density_main,
    criterion_lifting,
    criterion_lower_bounds,
    criterion_main_term,
    criterion_moments,
    criterion_oracle_2x2,
    criterion_padic_exact,
    criterion_r_table,
    criterion_split,
    criterion_sup_autocorrelation,
)

FULL = os.environ.get("COMMUCOUNT_ACCEPT_FULL") == "1"


def check(result):
    print(result.line())
    assert result.passed, f"{result.line()}  details={result.details}"
    return result


def test_criterion_01_count2_equals_oracle():
    # exact equality against exhaustive enumeration for N = 0..6
    check(criterion_oracle_2x2())


def test_criterion_02_main_term_constant():
    # |c2(N)/(2N)^5 - 4.5614425...| <= 0.01 at N = 10^4, strictly decreasing
    # through N = 10^2, 10^3, 10^4
    res = check(criterion_main_term())
    assert res.details["deviations"][-1] <= 0.01


def test_criterion_03_gamma_split():
    # exact partition at every computed N; degenerate/(2N)^5 within 0.05 of 2
    # at N = 1000
    res = check(criterion_split())
    assert abs(res.details["degenerate_ratio"] - 2) <= 0.05


def test_criterion_04_r_table():
    # oracle-exact for N <= 6; mass and symmetry identities; central value
    # within 20*N^2 of (16/zeta(2)) N^2 ln N at N = 2000
    res = check(criterion_r_table())
    assert res.details["central_gap_per_n2"] <= 20


def test_criterion_05_moments():
    # I_2(1) = 1921; I_3 stays bounded by 50 per (2N)^8 with at most 2x
    # variation across N = 50, 100, 200 (the per-N^8 readings, 256x larger,
    # are reported alongside in the details)
    res = check(criterion_moments())
    assert max(res.details["i3_per_side8"]) <= 50


def test_criterion_06_padic_exact():
    # fast count = p^2n * brute count on every modulus with p^6n <= 10^9,
    # including (2,1) -> 88 and (2,2) -> 6400
    res = check(criterion_padic_exact())
    assert res.details["moduli_checked"] == 17
    assert res.details["largest"] == [31, 1]


def test_criterion_07_density_main_term():
    # |density - main term| <= 4 n^2 p^{-n/2} on every tested modulus, checked
    # as the exact integer inequality dev^2 * p^n <= 16 n^4; sigma_2 = 7/4 and
    # sigma_3 = 13/9 exactly
    check(criterion_density_main())


def test_criterion_08_valuation_lifting():
    # |S(n,h)| = p^{6h} |S(n-2h,0)| for (p,n) in {(2,2),(2,3),(3,2)}, h < n/2
    check(criterion_lifting())


def test_criterion_09_rank_classification():
    # rank classes partition the commuting count with S0 = (2N+1)^6 and every
    # enumerated pair passing M X = Y; N = 1 always, N = 2 under
    # COMMUCOUNT_ACCEPT_FULL=1
    ns = (1, 2) if FULL else (1,)
    res = check(criterion_classification(ns=ns))
    assert res.details["classes"]["1"] == [729, 19872, 194016, 116352, 44448]
    if FULL:
        assert res.details["total_2"] == 50952937


def test_criterion_10_lower_bounds():
    # E_d(N)(d+1) >= 2(2N)^{d+1} for d in {2,3}, N <= 100; certificates stay
    # below the true counts at 2x2 N <= 4 and 3x3 N = 1
    check(criterion_lower_bounds())


def test_criterion_11_sup_autocorrelation():
    # sup_h r_A(h) = r_A(0) on 50 random sets of size <= 100 plus arithmetic
    # and geometric progressions of size 500
    res = check(criterion_sup_autocorrelation())
    assert res.details["gp_size"] == 500


def test_criterion_12_demo_4x4():
    # vanishing commutator diagonal and infeasible system for 100 sampled
    # diagonals; zero-row-7 / Y_7 = 1 witness reported
    res = check(criterion_demo_4x4())
    assert "witness" in res.details


@pytest.mark.skipif(not FULL, reason="set COMMUCOUNT_ACCEPT_FULL=1 for the heavy extras")
def test_full_suite_extras():
    from commucount.verify import extra_padic_deep, extra_partial_sum_float

    check(extra_padic_deep())
    check(extra_partial_sum_float())
