"""Autocorrelation tables of entrywise products, their moments, and the
finite-set analogues (doubling constants, sup-vs-center correlation checks).

The central object is r_N(h): over the grid [-N, N]^4, how many quadruples
satisfy x1*x2 - x3*x4 = h.  That is the autocorrelation of the product
distribution.  r_table feeds the dense product counts of the grid straight
to an exact transform: the counts written as decimal digit groups of one
number and multiplied exactly by libmpdec against its reversal; the grid's
counts are symmetric, c(m) = c(-m), so the number is squared.  Finite
rational sets give their sorted distinct products and counts as arrays
(int64 while every product stays within 2^62) to _autocorrelation, which
picks one of two routes from its input: the same transform when the product
span is small next to the number of distinct products, else one sort of the
pairwise product differences.  The sort keys are the exact differences
while the span fits int64, packed with their weight products into one
sorted int64 array where both fit, and residues mod a prime past it, where
pairs that share a residue are compared exactly.  No floating point
anywhere; every route checks the centre and mass identities, and the test
suite checks each against a naive double loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Union

from .core import (
    np,
    pairwise_fraction_sum,
    power_sum_work,
    product_distribution,
    totient_power_sums,
)
from .errors import InvariantViolation
from .oracle import WorkBudget

SetLike = Union["FiniteRealSet", Iterable[Union[int, Fraction]]]


# --- the exact correlation primitive ------------------------------------------

# The dense transform costs about 0.6 us per unit of product span, the
# packed sort about 35 ns per pair of distinct products (s^2 / 2 pairs of
# s values).  Every input the transform may take also packs (a span of at
# most _MAX_DENSE_SPAN < 2^21, and weights below 2|A| <= 1000 give products
# of at most 20 bits), so the packed sort is its only rival: the transform
# wins when span < about 0.025 s^2 (14 sets of 20 to 80 elements, spans 7e3
# to 1e6, 2 vCPU, numpy 2.4.6: 2.5-3.4x faster at 0.014 s^2, 2.2x slower
# at 0.067 s^2).
_DENSE_SPAN_PER_PAIR = 0.025
# Memory caps: the transform holds about 100 bytes per unit of its width
# hi - lo (2N^2 for r_table, so N <= 1000); at its peak the argsort holds
# six int64 arrays over its pairs, the packed sort three (mostly distinct
# differences, traced with tracemalloc).
_MAX_DENSE_SPAN = 2_000_000
_MAX_SORT_PAIRS = 12_500_000
# Fingerprint modulus for differences past int64: a prime below 2^61, so
# a difference of residues fits int64.  Not the Mersenne prime 2^61 - 1:
# there 2^61 = 1, and the differences of a set of powers of two collide by
# construction.
_FINGERPRINT_PRIME = 2**61 - 31


def _autocorrelation(
    values: np.ndarray, weights: np.ndarray, budget: WorkBudget | None = None
) -> np.ndarray:
    """Exact autocorrelation r(h) = sum_{m1 - m2 = h} c(m1) c(m2) of sorted
    distinct values m (an int64 array, or an object array of Python ints)
    with int64 counts c(m) = weights > 0.

    Returns r(0) followed by the nonzero r(h), h > 0, in no particular order
    (r(-h) = r(h)), from the route the input favours: the dense transform
    when the span is small next to the number s of distinct values, else
    one sort of the s(s-1)/2 pairwise differences (_fingerprint_pair_sums).
    The budget is charged the transform's digits, span * len(str(r(0))), or
    the sort's s^2.

    Every r(h) is at most r(0) = sum c^2 (Cauchy-Schwarz), which the
    transform's centre must equal (the sort sets r(0) to it), and the r(h)
    sum to (sum c)^2; a result that breaks either identity raises
    InvariantViolation.  Values too many and too spread for both fixed
    memory caps, the transform's span and the sort's pairs, raise
    ValueError: no budget lifts those caps."""
    budget = budget or WorkBudget()
    lo, hi = int(values[0]), int(values[-1])
    span, s = hi - lo + 1, len(values)
    r0 = int(weights @ weights)
    if hi - lo <= _MAX_DENSE_SPAN and (
        span <= _DENSE_SPAN_PER_PAIR * s * s or s * (s - 1) // 2 > _MAX_SORT_PAIRS
    ):
        digits = len(str(r0))
        budget.require(span * digits, "dense product-correlation digits")
        counts = np.zeros(span, dtype=np.int64)
        counts[_offsets(values, lo)] = weights
        corr = _dense_correlation(counts, digits)
        got_center, got_mass = int(corr[span - 1]), int(corr.sum())
        corr = corr[span - 1 :]
        corr = corr[corr != 0]
    else:
        if s * (s - 1) // 2 > _MAX_SORT_PAIRS:
            raise ValueError(
                f"{s} distinct products spanning {span} are past both fixed memory "
                f"caps of the exact correlation, a dense span of {_MAX_DENSE_SPAN} "
                f"and {_MAX_SORT_PAIRS} sorted pairs; no budget lifts them"
            )
        budget.require(s * s, "product-correlation pair work")
        if s == 1:
            half = np.zeros(0, dtype=np.int64)
        else:
            half = _fingerprint_pair_sums(values, weights)
        got_center, got_mass = r0, r0 + 2 * int(half.sum())
        corr = np.concatenate(([r0], half))
    _check_centre_and_mass(r0, got_center, r0, got_mass, int(weights.sum()) ** 2)
    return corr


def _offsets(values, lo: int) -> np.ndarray:
    """values - lo as int64, for sorted values spanning less than 2^63: an
    int64 array, or any sequence of Python ints."""
    if isinstance(values, np.ndarray) and values.dtype == np.int64:
        return values - lo
    return np.fromiter((m - lo for m in values), dtype=np.int64, count=len(values))


def _check_centre_and_mass(r0: int, got_center: int, center: int, got_mass: int, mass: int):
    """Raise InvariantViolation unless r0 = sum c^2, the correlation's centre
    got_center and the expected centre all agree, and its mass got_mass is
    the expected (sum c)^2."""
    if got_center != center or r0 != center or got_mass != mass:
        raise InvariantViolation(
            f"autocorrelation centre {got_center} and mass {got_mass} disagree "
            f"with the expected {center} and {mass}"
        )


def _dense_correlation(counts: np.ndarray, width: int) -> np.ndarray:
    """Exact autocorrelation of a dense count array, every output below
    10^width.

    Writes the counts as width-digit decimal groups of one number, and in
    reverse order as another, multiplies the two with libmpdec (which uses
    a number-theoretic transform on large operands) and reads the product
    back in groups: group L - 1 + h is sum_i counts[i] * counts[i + h].
    Symmetric counts, counts == counts[::-1] as in every r_table, make the
    two numbers equal, so the one number is squared: libmpdec then
    transforms a single operand.  The context traps Inexact and Rounded,
    so a product that would not be exact raises instead."""
    import decimal  # here, not at the top: most CLI commands never load it

    L = len(counts)
    digits = np.empty((L, width), dtype=np.uint8)
    rest = counts
    for k in range(width - 1, -1, -1):
        rest, digits[:, k] = np.divmod(rest, 10)
    digits += ord("0")
    forward = decimal.Decimal(digits.tobytes().decode("ascii"))
    if np.array_equal(counts, counts[::-1]):
        backward = forward
    else:
        backward = decimal.Decimal(digits[::-1].tobytes().decode("ascii"))
    context = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        Emin=decimal.MIN_EMIN,
        traps=[
            decimal.InvalidOperation,
            decimal.Overflow,
            decimal.Inexact,
            decimal.Rounded,
        ],
    )
    text = format(context.multiply(forward, backward), "f").encode("ascii")
    size = (2 * L - 1) * width
    if len(text) > size:
        raise InvariantViolation("dense correlation overflowed its digit groups")
    padded = np.full(size, ord("0"), dtype=np.uint8)
    padded[size - len(text) :] = np.frombuffer(text, dtype=np.uint8)
    groups = padded.reshape(2 * L - 1, width)[::-1] - ord("0")
    out = np.zeros(2 * L - 1, dtype=np.int64)
    for k in range(width):
        out *= 10
        out += groups[:, k]
    return out


def _pair_differences(values: np.ndarray, weights: np.ndarray):
    """values[j] - values[i] and weights[i] * weights[j] for every i < j of
    two int64 arrays of length s >= 2, as flat arrays in the order of
    _pair_rows_cols.

    Row i of the pairs (j = i+1..s-1) is folded together with row
    2s - 2 - width - i, reversed, into one row of `width` = s (s odd) or
    s - 1 (s even) entries, so the pairs fill a height x width rectangle.
    Across a folded row the j run along values followed by the reversed
    values, one sliding window per row, so each array takes two broadcast
    operations and no Python loop.  The one temporary as large as the pairs
    is the mask of the folded-in part, one byte a pair."""
    s = len(values)
    width = s if s % 2 else s - 1
    height = s * (s - 1) // 2 // width
    k = np.arange(height)
    folded = np.arange(width) >= s - 1 - k[:, None]
    other = 2 * s - 2 - width - k
    out = []
    for x, op in ((values, np.subtract), (weights, np.multiply)):
        windows = np.lib.stride_tricks.sliding_window_view(np.concatenate((x, x[::-1])), width)
        windows = windows[1 : height + 1]
        res = np.empty((height, width), dtype=np.int64)
        op(windows, x[:height, None], out=res)
        op(windows, x[other, None], out=res, where=folded)
        out.append(res.ravel())
    return out[0], out[1]


def _pair_rows_cols(pairs: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray]:
    """The (i, j), i < j, of the pairs at the given positions of
    _pair_differences(values, weights) for s values."""
    width = s if s % 2 else s - 1
    k, c = np.divmod(pairs, width)
    first = c < s - 1 - k
    rows = np.where(first, k, 2 * s - 2 - width - k)
    return rows, np.where(first, k + 1 + c, 2 * s - 2 - k - c)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal entries of a sorted array starts."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _group_sums(keys: np.ndarray, prods: np.ndarray):
    """Sort the keys and sum the weights of equal keys: (order, run starts,
    run sums)."""
    order = np.argsort(keys)
    starts = _run_starts(keys[order])
    return order, starts, np.add.reduceat(prods[order], starts)


def _fingerprint_pair_sums(values, weights: np.ndarray) -> np.ndarray:
    """r(h) for h > 0 from sorted distinct values of any size: an int64
    array, or any sequence of Python ints.

    Pairs are grouped on their difference, one sort over the keys m - lo.
    When hi - lo is below 2^63, every key and every key difference is exact
    in int64, so no two h can share a group.  If, besides, (hi - lo + 1)
    shifted left by the bit length b of the largest weight product stays
    below 2^63, each difference and its weight product are packed into one
    int64, difference << b | product, and that array is sorted in place:
    runs of equal high bits are the groups and their low bits the sums.
    Otherwise the differences are argsorted and the products gathered
    (_group_sums).  Past 2^63 the keys are (m - lo) mod _FINGERPRINT_PRIME,
    and the exact differences are compared inside every group of two or
    more pairs; if any group holds two, all such pairs are grouped again on
    their exact differences, so a collision mod the prime cannot merge two
    h."""
    s, lo, hi = len(values), int(values[0]), int(values[-1])
    if hi - lo < 2**63:
        diffs, prods = _pair_differences(_offsets(values, lo), weights)
        top = np.sort(weights)[-2:]
        b = int(top[0] * top[1]).bit_length()
        if (hi - lo + 1) << b >= 2**63:
            return _group_sums(diffs, prods)[2]
        diffs <<= b
        diffs |= prods
        del prods
        diffs.sort()
        starts = _run_starts(diffs >> b)
        diffs &= (1 << b) - 1
        return np.add.reduceat(diffs, starts)
    residues = np.array([(m - lo) % _FINGERPRINT_PRIME for m in values], dtype=np.int64)
    keys, prods = _pair_differences(residues, weights)
    keys %= _FINGERPRINT_PRIME
    order, starts, sums = _group_sums(keys, prods)
    del keys
    sizes = np.diff(np.append(starts, len(order)))
    shared = np.repeat(sizes > 1, sizes)
    if not shared.any():
        return sums
    pairs = order[shared]
    rows, cols = _pair_rows_cols(pairs, s)
    exact = np.array(values, dtype=object)
    differences = exact[cols] - exact[rows]
    counts = sizes[sizes > 1]
    firsts = np.cumsum(counts) - counts
    if (differences == np.repeat(differences[firsts], counts)).all():
        return sums
    _, by_difference = np.unique(differences, return_inverse=True)
    regrouped = np.zeros(by_difference.max() + 1, dtype=np.int64)
    np.add.at(regrouped, by_difference, prods[pairs])
    return np.concatenate((sums[sizes == 1], regrouped))


# --- the grid product autocorrelation -----------------------------------------


@dataclass(frozen=True, eq=False)
class RTable:
    """r_N(h) for |h| <= 2N^2, stored as the int64 array r[h + 2N^2]."""

    n: int
    r: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RTable):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.r, other.r)

    def value(self, h: int) -> int:
        """r_N(h); 0 off the support."""
        k = h + 2 * self.n * self.n
        return int(self.r[k]) if 0 <= k < len(self.r) else 0

    def items(self) -> Iterator[tuple[int, int]]:
        """The nonzero entries (h, r_N(h)) as Python ints, by increasing h."""
        nonzero = np.flatnonzero(self.r)
        return zip((nonzero - 2 * self.n * self.n).tolist(), self.r[nonzero].tolist())

    @property
    def values(self) -> dict[int, int]:
        """The nonzero entries as a dict {h: r_N(h)}."""
        return dict(self.items())

    def support(self) -> list[int]:
        return (np.flatnonzero(self.r) - 2 * self.n * self.n).tolist()

    def total(self) -> int:
        return int(self.r.sum())


def _power_sum(values: np.ndarray, k: int) -> int:
    """sum(values**k), exact, for nonnegative int64 values.  When every
    power fits in int64, numpy adds the powers' high and low 32-bit halves
    apart, so neither sum can wrap; otherwise Python integers do it."""
    if int(values.max()) ** k < 2**63 and len(values) < 2**31:
        powers = values**k
        return (int((powers >> 32).sum()) << 32) + int((powers & 0xFFFFFFFF).sum())
    return sum(v**k for v in values.tolist())


def r_zero(n: int, budget: WorkBudget | None = None) -> int:
    """r_N(0) in closed form: quadruples with x1*x2 = x3*x4 correspond to
    ordered pairs of linearly dependent vectors (x1, x4), (x3, x2), counted
    as 2*(2n+1)^2 - 1 (a zero vector involved) plus 16*sum_m phi(m)*(n//m)^2
    (both nonzero on a common primitive line).  The sum runs over blocks of
    m with one n//m, reading sum phi(m) at their ends: at most
    power_sum_work(n, 0) steps, the prefix table up to min(n, 77,000) plus
    about 8n/sqrt(77,000) recursion steps past it, charged to the budget
    before any work."""
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

    The dense transform of the product counts is charged its digits,
    (2n^2 + 1) times those of r_N(0), before the counts are built; its
    memory cap on the product width 2n^2 stops n at 1000, which no budget
    lifts.  The table's centre must equal both sum c^2 and the closed form
    r_N(0), and its mass (2n + 1)^4, or InvariantViolation is raised."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if 2 * n * n > _MAX_DENSE_SPAN:
        raise ValueError(
            f"r_table needs n <= {math.isqrt(_MAX_DENSE_SPAN // 2)}, the memory cap "
            f"of the dense transform (product width {_MAX_DENSE_SPAN}); no budget lifts it"
        )
    center = r_zero(n, budget)
    span = 2 * n * n + 1
    digits = len(str(center))
    (budget or WorkBudget()).require(span * digits, "dense product-correlation digits")
    counts = product_distribution(n)
    r = _dense_correlation(counts, digits)
    _check_centre_and_mass(
        int(counts @ counts), int(r[span - 1]), center, int(r.sum()), (2 * n + 1) ** 4
    )
    r.flags.writeable = False
    return RTable(n=n, r=r)


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
    return _power_sum(table.r, k)


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
    # At most N trial divisions however large h is: r_table caps N.
    dsum = sum(Fraction(1, d) for d in range(1, min(n, ah) + 1) if ah % d == 0)
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
    try:
        return FiniteRealSet.from_values(values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _scaled_integers(aset: FiniteRealSet) -> tuple[list[int], int]:
    """The set as integers after clearing denominators, plus the scale."""
    scale = math.lcm(*(v.denominator for v in aset.elements))
    return [int(v * scale) for v in aset.elements], scale


def _product_counts(ints: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct products a*b over ordered pairs from ints, and
    how many pairs give each, as int64 counts: one outer product, one sort,
    and the counts read at the run boundaries.

    While max|a|^2 < 2^62 the products, and any difference of two of them,
    fit int64 and the arrays are int64; past that they hold Python ints
    (dtype object)."""
    wide = max(abs(a) for a in ints) ** 2 >= 2**62
    arr = np.array(ints, dtype=object if wide else np.int64)
    products = np.multiply.outer(arr, arr).ravel()
    products.sort()
    starts = _run_starts(products)
    return products[starts], np.diff(np.append(starts, len(products)))


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
    values, counts = _product_counts(ints)
    counts = dict(zip(values.tolist(), counts.tolist()))
    return sum(c * counts.get(m - t, 0) for m, c in counts.items())


class DoublingReport(NamedTuple):
    """|A|, |A+A| and the doubling ratio |A+A|/|A| of a finite set."""

    size: int
    sumset_size: int
    ratio: Fraction


def doubling_report(aset: SetLike) -> DoublingReport:
    aset = FiniteRealSet.from_values(aset)
    if len(aset) > 2000:
        raise ValueError("doubling_report supports sets of at most 2000 elements")
    ints, _ = _scaled_integers(aset)
    sums = {a + b for a in ints for b in ints}
    return DoublingReport(len(ints), len(sums), Fraction(len(sums), len(ints)))


def lemma61_check(aset: SetLike, budget: WorkBudget | None = None) -> dict[str, int]:
    """{'sup_r': max_h r_A(h), 'r0': r_A(0), 'i3': sum_h r_A(h)^3}, exact.

    sup_r is taken over every h with r_A(h) > 0.  (Whether the center
    dominates, sup_r == r0, is deliberately *not* enforced here — that is
    the property the callers test.)  The sorted distinct products and their
    counts come as arrays from _product_counts, and the correlation from
    _autocorrelation, which picks its route from the products' span and
    count; a set past the memory caps of every route raises ValueError."""
    aset = FiniteRealSet.from_values(aset)
    if len(aset) > 500:
        raise ValueError("lemma61_check supports sets of at most 500 elements")
    ints, _ = _scaled_integers(aset)
    values, counts = _product_counts(ints)
    corr = _autocorrelation(values, counts, budget)
    r0 = int(corr[0])
    return {"sup_r": int(corr.max()), "r0": r0, "i3": 2 * _power_sum(corr, 3) - r0**3}
