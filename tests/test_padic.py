"""Commuting counts over Z/p^n: closed forms against the brute oracle, the
valuation-class lifting structure, and the exact density comparisons.
"""

from fractions import Fraction

import pytest

from commucount.errors import BudgetExceeded, NotPrime
from commucount.oracle import (
    WorkBudget,
    brute_degenerate_padic,
    brute_padic_solutions,
    brute_valuation_classes,
)
from commucount.padic import (
    PadicParams,
    PadicBreakdown,
    density_deviation,
    fast_padic_count,
    inclusion_exclusion_breakdown,
    s_n0_formula,
    sigma_p,
    theorem13_main,
    valuation_classes_fast,
)


def test_params_validation():
    with pytest.raises(NotPrime):
        PadicParams(4, 1)
    with pytest.raises(NotPrime):
        PadicParams(1, 1)
    with pytest.raises(ValueError):
        PadicParams(2, 0)
    assert PadicParams(3, 2).q == 9
    # q below 2^2048, checked without building a huge q
    assert PadicParams(2, 2047).q == 2**2047
    for n in (2048, 10**12):
        with pytest.raises(ValueError, match="2\\^2048"):
            PadicParams(2, n)
    with pytest.raises(ValueError):
        PadicParams(2**61 - 1, 34)


def test_closed_forms_past_int64():
    # The closed forms are Python integers, so q = 2^64 and 2^65 are fine.
    for n in (64, 65):
        params = PadicParams(2, n)
        assert fast_padic_count(params) == 2 ** (2 * n) * valuation_classes_fast(params).total()
    assert density_deviation(PadicParams(2, 64)) == Fraction(1, 2**64)
    assert density_deviation(PadicParams(2, 65)) == Fraction(1, 2**68)


def test_oracle_refuses_moduli_past_int64_cross_products():
    # q^2 >= 2^63 would overflow the oracle's int64 cross products: a
    # ValueError whatever the budget; q = 2^31 is only over budget.
    for budget in (None, WorkBudget(10**400)):
        for oracle in (brute_padic_solutions, brute_degenerate_padic, brute_valuation_classes):
            with pytest.raises(ValueError, match="q\\^2 < 2\\^63"):
                oracle(2, 32, budget)
    with pytest.raises(BudgetExceeded):
        brute_padic_solutions(2, 31)


@pytest.mark.parametrize(
    "p, n, expected",
    [(2, 1, 21), (2, 2, 336), (3, 1, 104), (2, 3, 5376)],
)
def test_class0_closed_form(p, n, expected):
    assert s_n0_formula(PadicParams(p, n)) == expected


def test_class0_formula_is_the_product_form():
    # p^{4n} (1 + 1/p)(1 - 1/p^3), blown up to integers.
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3):
            want = Fraction(p) ** (4 * n) * (1 + Fraction(1, p)) * (1 - Fraction(1, p**3))
            assert s_n0_formula(PadicParams(p, n)) == want


def test_inclusion_exclusion_breakdown():
    bd = inclusion_exclusion_breakdown(PadicParams(2, 1))
    assert bd == PadicBreakdown(12, 6, 3, 21)
    for p, n in ((2, 2), (3, 1), (5, 2), (7, 3)):
        bd = inclusion_exclusion_breakdown(PadicParams(p, n))
        assert 3 * bd.u0 - 3 * bd.u1 + bd.u2 == bd.s_n0 == s_n0_formula(PadicParams(p, n))
        # u_k = u_0 * ((p-1)/p)^k exactly
        assert bd.u1 * p == bd.u0 * (p - 1)
        assert bd.u2 * p == bd.u1 * (p - 1)


@pytest.mark.parametrize(
    "p, n, expected",
    [(2, 1, 88), (2, 2, 6400), (3, 1, 945)],
)
def test_fast_count_examples(p, n, expected):
    assert fast_padic_count(PadicParams(p, n)) == expected


@pytest.mark.parametrize(
    "p, n",
    [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1), (11, 1)],
)
def test_fast_count_equals_oracle(p, n):
    pp = PadicParams(p, n)
    assert fast_padic_count(pp) == p ** (2 * n) * brute_padic_solutions(p, n)


def test_class_counts_match_oracle_and_lift():
    for p, n in ((2, 2), (2, 3), (3, 2)):
        brute = brute_valuation_classes(p, n)
        fast = valuation_classes_fast(PadicParams(p, n))
        for h in range((n + 1) // 2):
            lifted = p ** (6 * h) * s_n0_formula(PadicParams(p, n - 2 * h))
            assert brute.classes[h] == lifted == fast.classes[h]
        deep = sum(v for h, v in brute.classes.items() if h >= (n + 1) // 2)
        assert deep == fast.residual == p ** (6 * (n // 2))
        assert brute.total() == fast.total()


def test_primality_checked_once_per_call(monkeypatch):
    import commucount.padic as padic

    calls = []

    def counting_is_prime(p):
        calls.append(p)
        return padic_is_prime(p)

    padic_is_prime = padic.is_prime
    monkeypatch.setattr(padic, "is_prime", counting_is_prime)
    for call in (fast_padic_count, valuation_classes_fast):
        calls.clear()
        call(PadicParams(9973, 4))
        assert calls == [9973]


def test_classes_at_2_3_by_value():
    brute = brute_valuation_classes(2, 3)
    assert brute.classes == {0: 5376, 1: 1344, 2: 63, 3: 1}
    fast = valuation_classes_fast(PadicParams(2, 3))
    assert fast.classes == {0: 5376, 1: 1344}
    assert fast.residual == 64


def test_sigma_p_values():
    assert sigma_p(2) == Fraction(7, 4)
    assert sigma_p(3) == Fraction(13, 9)
    assert sigma_p(13) == Fraction(183, 169)
    with pytest.raises(NotPrime):
        sigma_p(9)


def test_main_term_examples():
    assert theorem13_main(PadicParams(2, 1)) == Fraction(21, 16)
    assert theorem13_main(PadicParams(2, 2)) == Fraction(21, 16)
    # and it climbs to sigma_p as n grows
    assert theorem13_main(PadicParams(2, 9)) < sigma_p(2)
    gap = sigma_p(2) - theorem13_main(PadicParams(2, 9))
    assert gap == Fraction(7, 4) * Fraction(1, 2**10)


def test_density_deviation_exact_law():
    """The exact distance between density and main term: p^-n for even n,
    p^-(n+3) for odd n."""
    for p in (2, 3, 5, 7):
        for n in range(1, 7):
            dev = density_deviation(PadicParams(p, n))
            want = Fraction(1, p**n) if n % 2 == 0 else Fraction(1, p ** (n + 3))
            assert dev == want


def test_density_deviation_inside_stated_envelope():
    # dev <= 4 n^2 p^{-n/2}, squared to stay in integers.
    for p in (2, 3, 5, 11, 31):
        for n in range(1, 9):
            dev = density_deviation(PadicParams(p, n))
            assert dev * dev * p**n <= 16 * n**4


def test_degenerate_count_examples():
    assert brute_degenerate_padic(2, 1) == 20
    assert brute_degenerate_padic(2, 2) == 304
    assert brute_degenerate_padic(3, 1) == 81
    assert brute_degenerate_padic(5, 1) == 425


def test_degenerate_stays_under_bound():
    # count^2 <= 16 n^4 q^7, the integer form of count <= 4 n^2 q^{7/2}.
    for p, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)):
        c = brute_degenerate_padic(p, n)
        q = p**n
        assert c * c <= 16 * n**4 * q**7


def test_degenerate_budget_passthrough():
    with pytest.raises(BudgetExceeded):
        brute_degenerate_padic(2, 4, WorkBudget(10**5))


def test_densities_monotone_in_n():
    # fast_padic_count / p^{6n} increases with n towards sigma_p.
    for p in (2, 3):
        densities = [
            Fraction(fast_padic_count(PadicParams(p, n)), p ** (6 * n))
            for n in range(1, 10)
        ]
        assert all(a < b for a, b in zip(densities, densities[1:]))
        assert densities[-1] < sigma_p(p)
