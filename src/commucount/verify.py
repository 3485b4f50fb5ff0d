"""The verification criteria behind `commucount verify` and the acceptance
test suite: each function checks one independently-stated property at its
stated scale and reports what it saw.

Two suites share these functions; only the budget and the scales they set
apart are parameters.  `quick` keeps every enumeration under 10^8 visited
states (about 4 s of work on 2 vCPU); `full` raises the gate to 10^10, which
adds the heavier brute-force comparisons (p-adic moduli up to 10^9 states,
the 3x3 classification at N = 2, the full-size geometric progression) and
the large-X floating diagnostics.  Functions never weaken a bound to pass —
when a check fails, the result says so and carries the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .core import dependent_pair_constant, is_prime, np, zeta_value
from .count2 import count_commuting_2x2, gamma_split, normalized_count_2x2
from .divisor import lemma61_check, moment, partial_sum_float, r_table, r_zero
from .errors import InvariantViolation
from .oracle import (
    WorkBudget,
    brute_commuting_count,
    brute_padic_solutions,
    brute_r_table,
    brute_valuation_classes,
)
from .padic import (
    PadicParams,
    density_deviation,
    fast_padic_count,
    s_n0_formula,
    sigma_p,
    theorem13_main,
    valuation_classes_fast,
)
from .rank3 import (
    classify_commuting_3x3,
    inconsistency_demo_4x4,
    lower_bound_E,
    lower_bound_certificate,
)

_SEED = 20260814


@dataclass(frozen=True)
class CriterionResult:
    key: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        return f"[{'PASS' if self.passed else 'FAIL'}] criterion {self.key}: {self.name}"


def criterion_oracle_2x2(budget: WorkBudget | None = None) -> CriterionResult:
    """The closed-form 2x2 counter equals exhaustive enumeration for N <= 6."""
    counts = {}
    ok = True
    for n in range(7):
        fast = count_commuting_2x2(n)
        counts[str(n)] = fast
        ok = ok and fast == brute_commuting_count(2, n, budget)
    return CriterionResult("1", "2x2 count equals oracle for N <= 6", ok, {"counts": counts})


def criterion_main_term() -> CriterionResult:
    """Normalized counts approach 10*zeta(2)/(3*zeta(3)), monotonically over
    N = 10^2, 10^3, 10^4 and within 0.01 at the largest."""
    from .core import main_term_constant_2x2

    const = main_term_constant_2x2()
    ns = (100, 1000, 10000)
    devs = [float(abs(normalized_count_2x2(n) - const)) for n in ns]
    decreasing = all(a > b for a, b in zip(devs, devs[1:]))
    ok = decreasing and devs[-1] <= 0.01
    return CriterionResult(
        "2",
        f"normalized 2x2 count within 0.01 of the limit at N={ns[-1]}",
        ok,
        {"ns": list(ns), "deviations": devs, "constant": float(const)},
    )


def criterion_split() -> CriterionResult:
    """The degenerate/nondegenerate split is an exact partition, and the
    degenerate side alone already carries weight 2 per (2N)^5 at N = 1000."""
    check_ns, anchor = (0, 1, 2, 3, 5, 10, 100, 1000), 1000
    exact = all(sum(gamma_split(n)) == count_commuting_2x2(n) for n in check_ns)
    ratio = gamma_split(anchor).degenerate / (2 * anchor) ** 5
    ok = exact and abs(ratio - 2) <= 0.05
    return CriterionResult(
        "3",
        "gamma split partitions the count; degenerate weight near 2",
        ok,
        {"checked_ns": list(check_ns), "degenerate_ratio": ratio, "anchor": anchor},
    )


def criterion_r_table(budget: WorkBudget | None = None) -> CriterionResult:
    """Autocorrelation table: oracle-exact entries for N <= 6, mass and
    symmetry identities there and at N = 50, and the N^2 log N size of the
    central value at N = 2000."""
    big_n = 2000
    ok = True
    for n in (*range(1, 7), 50):
        table = r_table(n, budget)
        if n <= 6:
            ok = ok and dict(table.items()) == brute_r_table(n, budget)
        ok = ok and table.total() == (2 * n + 1) ** 4
        ok = ok and all(table.value(-h) == v for h, v in table.items())
    predicted = float(dependent_pair_constant()) * big_n * big_n * math.log(big_n)
    gap = abs(r_zero(big_n) - predicted) / (big_n * big_n)
    ok = ok and gap <= 20
    return CriterionResult(
        "4",
        f"r-table oracle-exact to N=6; r(0) size law at N={big_n}",
        ok,
        {"central_gap_per_n2": gap, "allowed": 20},
    )


def criterion_moments(
    ns: tuple[int, ...] = (50, 100, 200), budget: WorkBudget | None = None
) -> CriterionResult:
    """I_2(1) = 1921 exactly; the third moment per (2N)^8 stays below 50 and
    varies by at most 2x across the tested N (per N^8 reported alongside)."""
    ok = moment(1, 2, budget) == 1921
    per_side = []
    per_n = []
    for n in ns:
        i3 = moment(n, 3, budget)
        per_side.append(i3 / (2 * n) ** 8)
        per_n.append(i3 / n**8)
    ok = ok and all(v <= 50 for v in per_side)
    ok = ok and max(per_side) <= 2 * min(per_side)
    return CriterionResult(
        "5",
        "second moment anchor; third moment bounded per (2N)^8",
        ok,
        {"ns": list(ns), "i3_per_side8": per_side, "i3_per_n8": per_n},
    )


def _padic_gate(limit: int) -> list[tuple[int, int]]:
    pairs = []
    for p in range(2, int(round(limit ** (1 / 6))) + 2):
        if not is_prime(p) or p**6 > limit:
            continue
        n = 1
        while p ** (6 * n) <= limit:
            pairs.append((p, n))
            n += 1
    return pairs


def criterion_padic_exact(
    limit: int = 10**9, budget: WorkBudget | None = None
) -> CriterionResult:
    """fast_padic_count = p^{2n} * brute count on every modulus whose full
    enumeration fits under `limit` states."""
    pairs = _padic_gate(limit)
    ok = fast_padic_count(PadicParams(2, 1)) == 88
    ok = ok and fast_padic_count(PadicParams(2, 2)) == 6400
    for p, n in pairs:
        fast = fast_padic_count(PadicParams(p, n))
        ok = ok and fast == p ** (2 * n) * brute_padic_solutions(p, n, budget)
    return CriterionResult(
        "6",
        f"p-adic fast count equals oracle on all p^6n <= {limit:.0e}",
        ok,
        {"moduli_checked": len(pairs), "largest": list(pairs[-1]) if pairs else None},
    )


def criterion_density_main() -> CriterionResult:
    """Exact densities stay within 4*n^2*p^{-n/2} of the main term for
    p <= 31 and n <= 8, and the limit constants at p = 2, 3 are exactly 7/4
    and 13/9."""
    ok = sigma_p(2) == Fraction(7, 4) and sigma_p(3) == Fraction(13, 9)
    checked = 0
    worst = 0.0
    for p in range(2, 32):
        if not is_prime(p):
            continue
        for n in range(1, 9):
            dev = density_deviation(PadicParams(p, n))
            # dev <= 4 n^2 p^{-n/2}  <=>  dev^2 p^n <= 16 n^4, exactly.
            ok = ok and dev * dev * p**n <= 16 * n**4
            worst = max(worst, float(dev * dev * p**n / (16 * n**4)))
            checked += 1
    return CriterionResult(
        "7",
        "density within 4 n^2 p^(-n/2) of main term; sigma_2, sigma_3 exact",
        ok,
        {"moduli_checked": checked, "worst_margin_fraction": worst},
    )


def criterion_lifting(budget: WorkBudget | None = None) -> CriterionResult:
    """Brute valuation classes scale as p^{6h} times the level-(n-2h)
    class-0 count for h < n/2, with the deep residual mass p^{6*floor(n/2)},
    at (p, n) = (2, 2), (2, 3), (3, 2)."""
    cases = ((2, 2), (2, 3), (3, 2))
    ok = True
    for p, n in cases:
        brute = brute_valuation_classes(p, n, budget)
        fast = valuation_classes_fast(PadicParams(p, n))
        for h in range((n + 1) // 2):
            want = p ** (6 * h) * s_n0_formula(PadicParams(p, n - 2 * h))
            ok = ok and brute.classes.get(h) == want == fast.classes[h]
        tail = sum(v for h, v in brute.classes.items() if h >= (n + 1) // 2)
        ok = ok and tail == fast.residual == p ** (6 * (n // 2))
    return CriterionResult(
        "8",
        "valuation classes lift exactly (p^{6h} scaling, pooled residual)",
        ok,
        {"cases": [list(c) for c in cases]},
    )


def criterion_classification(
    ns: tuple[int, ...] = (1,),
    budget: WorkBudget | None = None,
    threads: int | None = None,
) -> CriterionResult:
    """Rank classes partition the 3x3 commuting pairs: totals equal the
    oracle count, the rank-0 class is exactly the diagonal pairs, and every
    joined pair, and every off-diagonal system of the scalar class, passes the
    M X = Y check while being classified."""
    ok = True
    details: dict = {"classes": {}}
    try:
        for n in ns:
            rc = classify_commuting_3x3(n, budget, threads)
            total = brute_commuting_count(3, n, budget, threads)
            details["classes"][str(n)] = list(rc.s)
            details[f"total_{n}"] = total
            ok = ok and rc.total() == total and rc.s[0] == (2 * n + 1) ** 6
    except InvariantViolation as exc:  # a pair failed M X = Y
        ok = False
        details["error"] = str(exc)
    return CriterionResult(
        "9",
        f"3x3 rank classes partition the count at N in {list(ns)}",
        ok,
        details,
    )


def criterion_lower_bounds(
    budget: WorkBudget | None = None, threads: int | None = None
) -> CriterionResult:
    """E_d(N) dominates 2/(d+1)*(2N)^{d+1} exactly for N <= 100, and the
    constructive certificates stay below the true counts (2x2 for N <= 4,
    3x3 at N = 1)."""
    ok = all(
        lower_bound_E(d, n) * (d + 1) >= 2 * (2 * n) ** (d + 1)
        for d in (2, 3)
        for n in range(1, 101)
    )
    for n in range(5):
        ok = ok and lower_bound_certificate(2, n) <= count_commuting_2x2(n)
    cert3 = lower_bound_certificate(3, 1)
    c3 = brute_commuting_count(3, 1, budget, threads)
    ok = ok and cert3 <= c3
    return CriterionResult(
        "10",
        "lower-bound certificates hold (E_d growth; certificate <= count)",
        ok,
        {"certificate_3_1": cert3, "count_3_1": c3},
    )


def _random_test_sets(rng: np.random.Generator):
    """50 random integer sets spread across both exact-correlation routes:
    mostly up to 100 values in [-150, 150] (a narrow product span: the dense
    transform from about 55 elements up, the sort below), a few mid-sized
    sets in [-10^6, 10^6] and tiny ones in [-10^9, 10^9] (wide spans: the
    sort, on exact differences).  The criterion's arithmetic progressions
    take the dense transform, its geometric ones the sort on residues mod
    the fingerprint prime."""
    for i in range(50):
        if i % 10 == 8:
            size = int(rng.integers(40, 71))
            pool = 2_000_001, 1_000_000  # values in [-1e6, 1e6]
        elif i % 10 == 9:
            size = int(rng.integers(2, 25))
            pool = 2_000_000_001, 1_000_000_000
        else:
            size = int(rng.integers(1, 101))
            pool = 301, 150  # values in [-150, 150]
        vals = rng.choice(pool[0], size=size, replace=False) - pool[1]
        yield [int(v) for v in vals]


def criterion_sup_autocorrelation(
    gp_size: int = 500, budget: WorkBudget | None = None
) -> CriterionResult:
    """The product autocorrelation of a finite set peaks at zero: checked on
    50 random sets and on arithmetic progressions of size 500 and geometric
    ones of size `gp_size`.

    A length-L doubling progression has ~L^2 distinct pairwise product
    differences, all huge integers, so the quick suite trims the geometric
    cases to 200; the full suite runs the stated 500."""
    prog_size = 500
    sets = list(_random_test_sets(np.random.default_rng(_SEED)))
    n_random = len(sets)
    sets.append(list(range(1, prog_size + 1)))
    sets.append(list(range(-prog_size // 2, prog_size // 2)))
    sets.append([2**k for k in range(gp_size)])
    sets.append([Fraction(3, 2) ** k for k in range(gp_size // 2)])
    ok = True
    for aset in sets:
        res = lemma61_check(aset, budget)
        ok = ok and res["sup_r"] <= res["r0"]
    return CriterionResult(
        "11",
        "sup of the product autocorrelation is attained at 0",
        ok,
        {
            "random_sets": n_random,
            "progressions": 4,
            "progression_size": prog_size,
            "gp_size": gp_size,
        },
    )


def criterion_demo_4x4() -> CriterionResult:
    """The fixed 4x4 pair keeps its vanishing commutator diagonal and its
    infeasible linear system for each of 100 sampled diagonal assignments."""
    samples = 100
    rng = np.random.default_rng(_SEED)
    ok = True
    for _ in range(samples):
        rep = inconsistency_demo_4x4(*(int(v) for v in rng.integers(-3, 4, 8)))
        ok = (
            ok
            and rep["diagonal_vanishes"]
            and rep["seventh_row_zero"]
            and rep["seventh_y"] == 1
            and rep["first_six_determinant"] == -2
            and rep["infeasible"]
        )
    return CriterionResult(
        "12",
        "4x4 demo: zero diagonal, zero row 7 with Y_7 = 1, system infeasible",
        ok,
        {"samples": samples, "witness": "row 7 of 12 is zero while Y[7] = 1"},
    )


def extra_padic_deep(budget: WorkBudget | None = None) -> CriterionResult:
    """Full-suite extra: the (2,5) modulus, just past the 10^9 gate."""
    fast = fast_padic_count(PadicParams(2, 5))
    ok = fast == 2**10 * brute_padic_solutions(2, 5, budget)
    main = theorem13_main(PadicParams(2, 5))
    return CriterionResult(
        "full-padic-2-5",
        "fast count equals oracle at p^n = 32",
        ok,
        {"count": fast, "main_term": f"{main.numerator}/{main.denominator}"},
    )


def extra_partial_sum_float() -> CriterionResult:
    """Full-suite extra: the mean of sigma(m)/m settles on zeta(2) (float
    route; the exact route is impractical past X ~ 10^5)."""
    z2 = float(zeta_value(2))
    m5 = partial_sum_float(10**5, 1)
    m6 = partial_sum_float(10**6, 1)
    ok = abs(m5 - z2) <= 1e-3 and abs(m6 - z2) <= 1e-4 and abs(m6 - z2) < abs(m5 - z2)
    return CriterionResult(
        "full-partial-sum",
        "mean of sigma(m)/m approaches zeta(2)",
        ok,
        {"x_1e5": m5, "x_1e6": m6, "zeta2": z2},
    )


def run_suite(suite: str, threads: int | None = None) -> Iterator[CriterionResult]:
    """Yield one result per criterion; `quick` stays under 10^8 enumeration
    states, `full` under 10^10 (the 3x3 classification at N = 2 dominates
    its runtime)."""
    if suite not in ("quick", "full"):
        raise ValueError(f"unknown suite {suite!r}; expected 'quick' or 'full'")
    full = suite == "full"
    budget = WorkBudget(10**10 if full else 10**8)
    yield criterion_oracle_2x2(budget=budget)
    yield criterion_main_term()
    yield criterion_split()
    yield criterion_r_table(budget=budget)
    yield criterion_moments(ns=(50, 100, 200) if full else (20, 35, 50), budget=budget)
    yield criterion_padic_exact(limit=10**9 if full else 10**8, budget=budget)
    yield criterion_density_main()
    yield criterion_lifting(budget=budget)
    yield criterion_classification(ns=(1, 2) if full else (1,), budget=budget, threads=threads)
    yield criterion_lower_bounds(budget=budget, threads=threads)
    yield criterion_sup_autocorrelation(gp_size=500 if full else 200, budget=budget)
    yield criterion_demo_4x4()
    if full:
        yield extra_padic_deep(budget=budget)
        yield extra_partial_sum_float()
