"""Autocorrelation tables of entrywise products, their moments, and the
finite-set analogues (doubling constants, sup-vs-center correlation checks).

The central object is r_N(h): over the grid [-N, N]^4, how many quadruples
satisfy x1*x2 - x3*x4 = h.  That is the autocorrelation of the product
distribution, so it is computed exactly by squaring one big integer whose
base-2^bits digits are the distribution's counts (Kronecker substitution);
no floating point anywhere.  The same trick serves arbitrary finite rational
sets when their product support is dense enough to justify it; sparse
supports go through dict or sorted-array correlation instead.  Every route
is exact and they are pairwise cross-checked in the test suite.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

import numpy as np

from .core import (
    pairwise_fraction_sum,
    power_sum_work,
    product_distribution,
    totient_power_sums,
)
from .errors import BudgetExceeded
from .oracle import WorkBudget

SetLike = Union["FiniteRealSet", Iterable[Union[int, Fraction]]]


# --- dense exact correlation by big-integer squaring --------------------------


def _kronecker_correlation(counts: np.ndarray, bits: int) -> np.ndarray:
    """Exact autocorrelation of a dense nonnegative-count array.

    Packs the counts as base-2^bits digits of one integer, multiplies it by
    its digit-reversal, and reads the product's digits back: digit L-1+h of
    the product is sum_i counts[i]*counts[i-h].  Caller must guarantee every
    output value < 2^bits (r(0) bounds them all, by Cauchy-Schwarz)."""
    if bits == 32:
        kind, width = "<u4", 4
    elif bits == 64:
        kind, width = "<u8", 8
    else:
        raise ValueError("bits must be 32 or 64")
    L = len(counts)
    blob = int.from_bytes(counts.astype(kind).tobytes(), "little")
    blob_rev = int.from_bytes(counts[::-1].astype(kind).tobytes(), "little")
    product = blob * blob_rev
    raw = product.to_bytes(width * (2 * L - 1), "little")
    return np.frombuffer(raw, dtype=kind).copy()


# --- the grid product autocorrelation -----------------------------------------


@dataclass(frozen=True)
class RTable:
    """Sparse table of r_N(h); value(h) = 0 off the stored support."""

    n: int
    values: dict[int, int]

    def value(self, h: int) -> int:
        return self.values.get(h, 0)

    def support(self) -> list[int]:
        return sorted(self.values)

    def total(self) -> int:
        return sum(self.values.values())


def r_zero(n: int, budget: WorkBudget | None = None) -> int:
    """r_N(0) in closed form: quadruples with x1*x2 = x3*x4 correspond to
    ordered pairs of linearly dependent vectors (x1, x4), (x3, x2), counted
    as 2*(2n+1)^2 - 1 (a zero vector involved) plus 16*sum_m phi(m)*(n//m)^2
    (both nonzero on a common primitive line).  The sum runs over blocks of
    m with one n//m, reading sum phi(m) at their ends: O(n^(2/3)) time, with
    the budget charged before any work."""
    if n < 1:
        raise ValueError("n must be >= 1")
    (budget or WorkBudget()).require(power_sum_work(n, 0), "totient power sums")
    side = 2 * n + 1
    sums = totient_power_sums(n, 0)
    dependent = 0
    prev = 0
    for end, (cur,) in zip(sums.ends, sums.sums):
        k = n // end
        dependent += (cur - prev) * k * k
        prev = cur
    return 2 * side * side - 1 + 16 * dependent


def r_table(n: int, budget: WorkBudget | None = None) -> RTable:
    """The full autocorrelation table r_N(h) for |h| <= 2n^2, exact.

    Budgeted as O(support^2) pair work, which caps n near 300 under the
    default budget; the actual big-integer squaring is much cheaper."""
    if n < 1:
        raise ValueError("n must be >= 1")
    budget = budget or WorkBudget()
    support = 2 * n * n + 1
    budget.require(support * support, "product-autocorrelation pair work")
    dist = product_distribution(n)
    counts = np.zeros(support, dtype=np.uint64)
    for value, cnt in dist.items():
        counts[value + n * n] = cnt
    r0 = r_zero(n, budget)
    corr = _kronecker_correlation(counts, 32 if r0 < 2**32 else 64)
    center = support - 1
    if int(corr[center]) != r0:
        raise AssertionError("autocorrelation center disagrees with closed form")
    table = {int(j - center): int(corr[j]) for j in np.flatnonzero(corr)}
    return RTable(n=n, values=table)


def moment(
    n: int, k: int, budget: WorkBudget | None = None, table: RTable | None = None
) -> int:
    """I_k(N) = sum_h r_N(h)^k.  k = 1 gives (2N+1)^4 by construction; k = 2
    counts octuples with x1*x2 - x3*x4 = x5*x6 - x7*x8."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if table is None:
        table = r_table(n, budget)
    elif table.n != n:
        raise ValueError(f"table is for n={table.n}, not n={n}")
    return sum(v**k for v in table.values.values())


def divisor_bound_check(
    n: int,
    h: int,
    budget: WorkBudget | None = None,
    table: RTable | None = None,
) -> Fraction:
    """r_N(h) / (N^2 * sum_{d | |h|, d <= N} 1/d), exact.

    The denominator is the shape of the standard divisor-sum upper bound for
    shifted product counts; bounded ratios across the whole support are the
    diagnostic the tests sweep."""
    if h == 0:
        raise ValueError("h must be nonzero (the h = 0 bound has a log factor)")
    if table is None:
        table = r_table(n, budget)
    elif table.n != n:
        raise ValueError(f"table is for n={table.n}, not n={n}")
    ah = abs(h)
    dsum = Fraction(0)
    d = 1
    while d * d <= ah:
        if ah % d == 0:
            if d <= n:
                dsum += Fraction(1, d)
            other = ah // d
            if other != d and other <= n:
                dsum += Fraction(1, other)
        d += 1
    return Fraction(table.value(h)) / (n * n * dsum)


# --- classical divisor-function correlations ----------------------------------

_SIEVE_LIMIT = 10**7


def _divisor_sieve(limit: int, k: int) -> np.ndarray:
    """sigma_k(0..limit) = sum of d^k over the divisors d of m, as int64
    (entry 0 is 0).  Every divisor pair d * e = m with d <= e has d <=
    sqrt(limit), so one pass over those d adds d^k + e^k to the multiples
    d*e, e > d, and d^k to d*d."""
    sigma = np.zeros(limit + 1, dtype=np.int64)
    for d in range(1, math.isqrt(limit) + 1):
        sigma[d * d] += d**k
        multiples = sigma[d * (d + 1) :: d]
        multiples += d**k
        partners = np.arange(d + 1, limit // d + 1, dtype=np.int64)
        partners **= k
        multiples += partners
    return sigma


def classic_divisor_correlation(x: int, h: int) -> int:
    """D_X(h) = sum_{m <= X} tau(m) * tau(m + h), exact via a tau sieve."""
    if x < 1:
        raise ValueError("x must be >= 1")
    if h < 0:
        raise ValueError("h must be >= 0")
    if x + h > _SIEVE_LIMIT:
        raise ValueError(f"x + h must stay within the sieve limit {_SIEVE_LIMIT}")
    tau = _divisor_sieve(x + h, 0)
    return int(np.dot(tau[1 : x + 1], tau[1 + h : x + h + 1]))


def partial_sum_check(x: int, k: int) -> Fraction:
    """(1/X) * sum_{m <= X} (sigma(m)/m)^k as an exact rational.

    Exact through X around 10^5 in practice (the reduced denominator grows
    like lcm(1..X)^k); the large-X convergence comparison in the full verify
    suite uses a float rendering of the same sum instead."""
    if not 1 <= x <= 10**6:
        raise ValueError("x must be in 1..10^6")
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4")
    sigma = _divisor_sieve(x, 1)
    total = pairwise_fraction_sum(
        Fraction(int(sigma[m]), m) ** k for m in range(1, x + 1)
    )
    return total / x


def partial_sum_float(x: int, k: int) -> float:
    """float64 rendering of partial_sum_check for large X diagnostics."""
    if not 1 <= x <= 10**7:
        raise ValueError("x must be in 1..10^7")
    sigma = _divisor_sieve(x, 1)
    ratios = sigma[1:].astype(np.float64) / np.arange(1, x + 1, dtype=np.float64)
    return float((ratios**k).sum() / x)


# --- finite rational sets ------------------------------------------------------


@dataclass(frozen=True)
class FiniteRealSet:
    """A nonempty finite set of exact rationals, stored sorted."""

    elements: tuple[Fraction, ...]

    @classmethod
    def from_values(cls, values: SetLike) -> "FiniteRealSet":
        if isinstance(values, FiniteRealSet):
            return values
        elems = sorted(Fraction(v) for v in values)
        if not elems:
            raise ValueError("set must be nonempty")
        for a, b in zip(elems, elems[1:]):
            if a == b:
                raise ValueError(f"duplicate element {a}")
        return cls(tuple(elems))

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def parse_set_file(path: str) -> FiniteRealSet:
    """One integer or p/q rational per line; blank lines and '#' comments
    (full-line or trailing) ignored; duplicates rejected."""
    values: list[Fraction] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            token = line.split("#", 1)[0].strip()
            if not token:
                continue
            try:
                values.append(Fraction(token))
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"{path}:{lineno}: bad entry {token!r}") from exc
    if not values:
        raise ValueError(f"{path}: no elements")
    seen: set[Fraction] = set()
    for v in values:
        if v in seen:
            raise ValueError(f"{path}: duplicate element {v}")
        seen.add(v)
    return FiniteRealSet.from_values(values)


def _scaled_integers(aset: FiniteRealSet) -> tuple[list[int], int]:
    """The set as integers after clearing denominators, plus the scale."""
    scale = math.lcm(*(v.denominator for v in aset.elements))
    return [int(v * scale) for v in aset.elements], scale


def _product_counts(ints: list[int]) -> Counter:
    counts: Counter = Counter()
    for a in ints:
        for b in ints:
            counts[a * b] += 1
    return counts


def r_set(aset: SetLike, target: Union[int, Fraction]) -> int:
    """r_A(n) = #{(a, b, c, d) in A^4 : a*b - c*d = n} for a finite rational
    set A, exact."""
    aset = FiniteRealSet.from_values(aset)
    if len(aset) > 2000:
        raise ValueError("r_set supports sets of at most 2000 elements")
    ints, scale = _scaled_integers(aset)
    t = Fraction(target) * scale * scale
    if t.denominator != 1:
        return 0
    t = int(t)
    counts = _product_counts(ints)
    return sum(c * counts.get(m - t, 0) for m, c in counts.items())


class DoublingReport:
    """|A|, |A+A| and the doubling ratio |A+A|/|A| of a finite set."""

    __slots__ = ("size", "sumset_size", "ratio")

    def __init__(self, size: int, sumset_size: int):
        self.size = size
        self.sumset_size = sumset_size
        self.ratio = Fraction(sumset_size, size)

    def __repr__(self) -> str:
        return (
            f"DoublingReport(size={self.size}, sumset_size={self.sumset_size}, "
            f"ratio={self.ratio})"
        )


def doubling_report(aset: SetLike) -> DoublingReport:
    aset = FiniteRealSet.from_values(aset)
    if len(aset) > 2000:
        raise ValueError("doubling_report supports sets of at most 2000 elements")
    ints, _ = _scaled_integers(aset)
    sums = {a + b for a in ints for b in ints}
    return DoublingReport(len(ints), len(sums))


def lemma61_check(aset: SetLike, budget: WorkBudget | None = None) -> dict[str, int]:
    """{'sup_r': max_h r_A(h), 'r0': r_A(0), 'i3': sum_h r_A(h)^3}, exact.

    sup_r is taken over every h with r_A(h) > 0.  (Whether the center
    dominates, sup_r == r0, is deliberately *not* enforced here — that is
    the property the callers test.)  Three exact routes, picked by support
    size and value magnitude; anything too large for all three refuses."""
    aset = FiniteRealSet.from_values(aset)
    if len(aset) > 500:
        raise ValueError("lemma61_check supports sets of at most 500 elements")
    budget = budget or WorkBudget()
    ints, _ = _scaled_integers(aset)
    counts = _product_counts(ints)
    r0 = sum(c * c for c in counts.values())
    s = len(counts)

    if s * s <= 2_000_000:
        budget.require(s * s, "product-correlation pair work")
        diffs: Counter = Counter()
        for m1, c1 in counts.items():
            for m2, c2 in counts.items():
                diffs[m1 - m2] += c1 * c2
        sup = max(diffs.values())
        i3 = sum(v**3 for v in diffs.values())
    elif max(abs(m) for m in counts) < 2**62 and s * s <= 25_000_000:
        budget.require(s * s, "product-correlation pair work")
        vals = np.fromiter(counts.keys(), dtype=np.int64, count=s)
        wts = np.fromiter(counts.values(), dtype=np.int64, count=s)
        d = (vals[:, None] - vals[None, :]).ravel()
        w = (wts[:, None] * wts[None, :]).ravel()
        order = np.argsort(d, kind="stable")
        d = d[order]
        w = w[order]
        starts = np.flatnonzero(np.concatenate(([True], d[1:] != d[:-1])))
        sums = np.add.reduceat(w, starts)
        sup = int(sums.max())
        if sup**3 * len(sums) < 2**62:
            i3 = int((sums**3).sum())
        else:
            i3 = sum(int(v) ** 3 for v in sums.tolist())
    elif max(counts) - min(counts) <= 400_000:
        vmin = min(counts)
        L = max(counts) - vmin + 1
        budget.require(L, "dense product-correlation length")
        dense = np.zeros(L, dtype=np.uint64)
        for m, c in counts.items():
            dense[m - vmin] = c
        corr = _kronecker_correlation(dense, 32 if r0 < 2**32 else 64)
        nz = corr[np.flatnonzero(corr)]
        sup = int(nz.max())
        i3 = sum(int(v) ** 3 for v in nz.tolist())
        if int(corr[L - 1]) != r0:
            raise AssertionError("dense correlation center disagrees with r0")
    else:
        raise BudgetExceeded(s * s, budget.max_states, "product-correlation pair work")

    return {"sup_r": sup, "r0": r0, "i3": i3}
