"""Commuting-pair counts over Z/p^n: exact closed forms, valuation-class
structure, and the limiting densities they approach.

The residue system behind everything here is the 2x2 commuting condition
with the two free diagonal-difference coordinates factored out:

    x2*y3 = x3*y2,   x2*y4 = y2*x4,   x3*y4 = y3*x4   (mod p^n),

six unknowns in Z/p^n.  Solutions stratify by the minimum valuation h of the
six coordinates: dividing everything by p^h maps the class-h solutions onto
the class-0 solutions at level n-2h, a factor p^{6h} at a time, and the
class-0 count has a clean product form.  Summing the strata gives an exact
count, which is gated against the brute oracle before being trusted anywhere
the oracle cannot reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .core import is_prime
from .errors import NotPrime
from .oracle import ValuationClassCounts

# The closed forms' cost grows like (n log p)^2: 7 s and 118 MB for the
# class table at q = 2^20000 on 2 vCPU, under 0.1 s below q = 2^2048, where
# every count (below 2 q^6) also prints within Python's 4300-digit limit.
_MAX_Q_BITS = 2048


@dataclass(frozen=True)
class PadicParams:
    """A prime power modulus q = p^n with validated parts."""

    p: int
    n: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise NotPrime(f"p={self.p} is not prime")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n >= _MAX_Q_BITS or self.p**self.n >= 2**_MAX_Q_BITS:
            raise ValueError(f"p^n must stay below 2^{_MAX_Q_BITS}")

    @cached_property
    def q(self) -> int:
        return self.p**self.n


def s_n0_formula(params: PadicParams) -> int:
    """|class-0 solutions| = p^{4n}(1 + 1/p)(1 - 1/p^3), always integral:
    p^{4n} + p^{4n-1} - p^{4n-3} - p^{4n-4}."""
    return _class0_count(params.p, params.n)


def _class0_count(p: int, n: int) -> int:
    """s_n0_formula at level n for a p already known to be prime."""
    return p ** (4 * n) + p ** (4 * n - 1) - p ** (4 * n - 3) - p ** (4 * n - 4)


class PadicBreakdown(NamedTuple):
    """The three inclusion-exclusion masses behind the class-0 count:
    u_k = p^{4n}(1 - 1/p^2)(1 - 1/p)^k, combined as 3*u0 - 3*u1 + u2."""

    u0: int
    u1: int
    u2: int
    s_n0: int


def inclusion_exclusion_breakdown(params: PadicParams) -> PadicBreakdown:
    p, n = params.p, params.n
    u0 = p ** (4 * n - 2) * (p * p - 1)
    u1 = p ** (4 * n - 3) * (p * p - 1) * (p - 1)
    u2 = p ** (4 * n - 4) * (p * p - 1) * (p - 1) ** 2
    return PadicBreakdown(u0, u1, u2, 3 * u0 - 3 * u1 + u2)


def fast_padic_count(params: PadicParams) -> int:
    """Exact number of commuting ordered pairs of 2x2 matrices over Z/p^n.

    p^{2n} free diagonal coordinates, times the stratified solution count of
    the six-variable system: class h < ceil(n/2) contributes p^{6h} times the
    class-0 count at level n-2h, and the residual stratum (every coordinate
    with valuation >= ceil(n/2), where all products vanish identically)
    contributes p^{6*floor(n/2)}.  Derived, and gated against the brute
    oracle on every modulus the oracle can enumerate.
    """
    p, n = params.p, params.n
    total = p ** (6 * (n // 2))
    for h in range((n + 1) // 2):
        total += p ** (6 * h) * _class0_count(p, n - 2 * h)
    return p ** (2 * n) * total


def sigma_p(p: int) -> Fraction:
    """Limit density (1+1/p)(1-1/p^2)^{-1}(1-1/p^3) = (p^2+p+1)/p^2."""
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    return Fraction(p * p + p + 1, p * p)


def theorem13_main(params: PadicParams) -> Fraction:
    """Main term of the density fast_padic_count / p^{6n}:
    sigma_p * (1 - p^{-2*ceil(n/2)}), exact."""
    p, n = params.p, params.n
    return sigma_p(p) * (1 - Fraction(1, p ** (2 * ((n + 1) // 2))))


def density_deviation(params: PadicParams) -> Fraction:
    """|fast_padic_count/p^{6n} - theorem13_main|, exact.  Comes out to
    exactly p^{-n} for even n and p^{-n-3} for odd n — strictly inside the
    advertised n^2 * p^{-n/2} envelope."""
    p, n = params.p, params.n
    density = Fraction(fast_padic_count(params), p ** (6 * n))
    return abs(density - theorem13_main(params))


def valuation_classes_fast(params: PadicParams) -> ValuationClassCounts:
    """Class counts by closed form: h < ceil(n/2) via p^{6h} * class-0 at
    level n-2h; everything deeper pooled into the residual bucket
    p^{6*floor(n/2)}.  Sums to fast_padic_count / p^{2n}."""
    p, n = params.p, params.n
    classes = {
        h: p ** (6 * h) * _class0_count(p, n - 2 * h)
        for h in range((n + 1) // 2)
    }
    return ValuationClassCounts(
        p=p, n=n, classes=classes, residual=p ** (6 * (n // 2))
    )
