"""Exact count of commuting pairs of 2x2 integer matrices with entries in
[-N, N], and its degenerate/nondegenerate split.

Two 2x2 matrices commute iff the three planar vectors

    (a12, b12),  (a21, b21),  (a22 - a11, b22 - b11)

built from corresponding entries of the pair lie on a single line through the
origin.  Grouping configurations by the primitive direction of that line gives

    count(N) = (2N+1)^4
             + sum over canonical directions p of
                   (2*n_p + n_p^2) * ((2N+1)^2 + w_p),

where n_p counts the nonzero multiples of p in the box and (2N+1)^2 + w_p
counts ordered pairs of box points whose difference lies on the line of p
(the weight each admissible diagonal-difference contributes).  Both factors
have elementary closed forms, and every term for the phi(m) directions with
the same coordinate maximum m is identical up to the |u|+|v| and |u*v| sums,
so the sum over m collapses via sum_{j<m, gcd(j,m)=1} j = m*phi(m)/2 into
blocks of m on which 2N//m is constant, each a polynomial in 2N//m times the
totient power sums sum phi(m)*m^k.  Those are read from a prefix table up to
min(N, 77,000) and follow Du's recursion past it, about 8N/sqrt(77,000)
steps per power, so once N passes the table the cost grows linearly in N.  A
literal per-direction evaluation is kept alongside for cross-checking; the
brute oracle validates both.
"""

from __future__ import annotations

from decimal import Decimal, localcontext
from typing import NamedTuple

from .core import (
    PrimitiveDirection,
    power_sum_work,
    primitive_directions,
    totient_power_sums,
)
from .oracle import WorkBudget


def line_count(n: int, p: PrimitiveDirection) -> int:
    """n_p: the number of nonzero integer multiples of p inside [-n, n]^2.

    Equivalently (after a quarter-turn) the number of nonzero solutions of
    u*x = v*y in the box, which are exactly the nonzero multiples of (v, u)
    up to sign.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return 2 * (n // p.m)


def _difference_weight(n: int, au: int, av: int) -> int:
    """sum over z != 0 with |z|*max(au, av) <= 2n of
    (2n+1 - |z|*au) * (2n+1 - |z|*av), for au = |u|, av = |v|.

    Each term counts ordered pairs of box points differing by exactly z*(u,v);
    the closed form below is the z-sum expanded through the triangular and
    square-pyramidal numbers.
    """
    side = 2 * n + 1
    m = max(au, av)
    big = (2 * n) // m
    t1 = big * (big + 1) // 2
    t2 = big * (big + 1) * (2 * big + 1) // 6
    return 2 * (side * side * big - side * (au + av) * t1 + au * av * t2)


def weighted_line_sum(n: int, p: PrimitiveDirection) -> int:
    """w_p: ordered pairs of points in [-n, n]^2 whose difference is a
    *nonzero* multiple of p.  Adding (2n+1)^2 (the zero-difference pairs)
    gives all pairs whose difference lies on the line of p."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return _difference_weight(n, abs(p.u), abs(p.v))


class GammaSplit(NamedTuple):
    degenerate: int  # some off-diagonal entry of A or B vanishes
    nondegenerate: int  # all four off-diagonal entries nonzero


def _split_terms(n: int, budget: WorkBudget | None) -> tuple[int, int]:
    """(degenerate, nondegenerate) via the totient aggregation in blocks."""
    side = 2 * n + 1
    side2 = side * side
    if n == 0:
        return 1, 0
    (budget or WorkBudget()).require(power_sum_work(n, 2), "totient power sums")
    w_axis = _difference_weight(n, 1, 0)
    w_diag = _difference_weight(n, 1, 1)
    k1 = 2 * n
    # Directions (1,0), (0,1): a nonzero multiple has one zero coordinate,
    # so even both-nonzero configurations keep an off-diagonal entry at 0.
    deg = side**4
    deg += (2 * k1 + k1 * k1) * 2 * (side2 + w_axis)
    # Diagonal directions (1,1), (1,-1).
    deg += 2 * k1 * 2 * (side2 + w_diag)
    nondeg = k1 * k1 * 2 * (side2 + w_diag)
    # Directions with m >= 2, grouped into blocks of m with one q = 2n//m
    # (so one k = 2*(n//m)).  Over the phi(m) coprime patterns {m, j} the
    # |u|+|v| sums telescope through sum_j j = m*phi(m)/2, and each pattern
    # appears in 4 sign/swap variants with identical weight, so a block
    # contributes a polynomial in q times S_k = sum phi(m)*m^k, k = 0, 1, 2.
    sums = totient_power_sums(n, 2)
    prev = sums.sums[0]  # the block {1}, counted above
    for end, cur in zip(sums.ends[1:], sums.sums[1:]):
        q = (2 * n) // end
        t1 = q * (q + 1) // 2
        t2 = t1 * (2 * q + 1) // 3
        k = q - q % 2
        group = (
            (4 + 8 * q) * side2 * (cur[0] - prev[0])
            - 12 * side * t1 * (cur[1] - prev[1])
            + 4 * t2 * (cur[2] - prev[2])
        )
        deg += 2 * k * group
        nondeg += k * k * group
        prev = cur
    return deg, nondeg


def count_commuting_2x2(n: int, budget: WorkBudget | None = None) -> int:
    """Number of ordered pairs (A, B) of 2x2 integer matrices, entries in
    [-n, n], with AB == BA.  Exact, in at most power_sum_work(n, 2) steps:
    the prefix table up to min(n, 77,000) plus about 8n/sqrt(77,000)
    recursion steps per power past it, charged to the budget before any
    work."""
    if n < 0:
        raise ValueError("n must be >= 0")
    deg, nondeg = _split_terms(n, budget)
    return deg + nondeg


def gamma_split(n: int, budget: WorkBudget | None = None) -> GammaSplit:
    """The commuting count split by whether some off-diagonal entry of A or
    B vanishes (degenerate) or all four are nonzero (nondegenerate).  The
    two parts sum to count_commuting_2x2(n) exactly."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return GammaSplit(*_split_terms(n, budget))


def count_commuting_2x2_by_direction(n: int) -> int:
    """Literal per-direction evaluation of the same sum (quadratic in N
    overall); retained as an independent route for cross-checks."""
    if n < 0:
        raise ValueError("n must be >= 0")
    side = 2 * n + 1
    total = side**4
    if n == 0:
        return total
    for p in primitive_directions(n):
        k = line_count(n, p)
        w = weighted_line_sum(n, p)
        total += (2 * k + k * k) * (side * side + w)
    return total


def normalized_count_2x2(n: int, count: int | None = None) -> Decimal:
    """count_commuting_2x2(n) / (2n)^5 as a 40-digit decimal; tends to the
    main-term constant 4.5614425920673529... as n grows.  A `count` already
    in hand is used instead of recomputing it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if count is None:
        count = count_commuting_2x2(n)
    with localcontext() as ctx:
        ctx.prec = 40
        return Decimal(count) / Decimal(2 * n) ** 5
