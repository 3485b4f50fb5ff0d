"""The correctness gate behind `fail_ratio`.

Each job's result is compared with a reference that shares no code with the
call that was timed:

- the brute-force oracle, at the scales it reaches;
- `count_commuting_2x2_by_direction` for N <= 300;
- the values pinned in the README (375417 and the rank classes at N = 1);
- `fast_padic_count` against the residue oracle times p^{2n};
- recomputations written here: product counts by `np.bincount`, their
  autocorrelation by a rounded floating-point FFT with an error guard, the
  r_N(0) identity 2(2N+1)^2 - 1 + 16 * sum_{a,b<=N} gcd(a, b), divisor
  counts by bincount, the certificate formula;
- exact values recorded from the seed commit in `reference.json`, for N
  where no cheap reference exists.

The gate runs after the timed passes, and every reference is computed once
per distinct input.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction

import numpy as np

README_COUNT3_N1 = 375417
README_CLASSES_N1 = (729, 19872, 194016, 116352, 44448)


class CheckFailed(Exception):
    """A result disagrees with its reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# --- references written for the gate -----------------------------------------


def product_counts(n: int) -> np.ndarray:
    """Multiplicities of a*b over [-n, n]^2, indexed by a*b + n^2."""
    a = np.arange(1, n + 1, dtype=np.int64)
    positive = np.bincount(np.multiply.outer(a, a).ravel(), minlength=n * n + 1)
    counts = np.zeros(2 * n * n + 1, dtype=np.int64)
    counts[n * n + 1 :] = 2 * positive[1:]
    counts[: n * n] = 2 * positive[1:][::-1]
    counts[n * n] = 4 * n + 1
    return counts


def autocorrelation(counts: np.ndarray) -> np.ndarray:
    """out[j] = sum_i counts[i + k] * counts[i] for k = j - (len - 1), by a
    float64 FFT rounded to integers.  Refuses when any value lies farther
    than 0.25 from an integer, which would mean rounding error."""
    length = len(counts)
    size = 1 << (2 * length - 1).bit_length()
    spectrum = np.fft.rfft(counts.astype(np.float64), size)
    raw = np.fft.irfft(spectrum * np.conj(spectrum), size)
    out = np.concatenate([raw[size - (length - 1) :], raw[:length]])
    rounded = np.rint(out)
    if length > 1 and np.abs(out - rounded).max() > 0.25:
        raise CheckFailed("reference FFT lost integer precision")
    return rounded.astype(np.int64)


def r_zero_reference(n: int) -> int:
    a = np.arange(1, n + 1, dtype=np.int64)
    gcd_sum = int(np.gcd.outer(a, a).sum())
    return 2 * (2 * n + 1) ** 2 - 1 + 16 * gcd_sum


def tau_table(limit: int) -> np.ndarray:
    multiples = np.concatenate(
        [np.arange(d, limit + 1, d, dtype=np.int64) for d in range(1, limit + 1)]
    )
    return np.bincount(multiples, minlength=limit + 1)


def certificate_reference(d: int, n: int) -> tuple[int, int]:
    side = 2 * n + 1
    e_d = side**d + 2 * sum(u**d for u in range(1, 2 * n + 1))
    return (2 * n) ** (d * d - d) * e_d + 2 * side ** (d * d + 1) - side * side, e_d


def lemma61_reference(values) -> dict[str, int]:
    ints = [int(v) for v in values]
    prods = Counter(a * b for a in ints for b in ints)
    r0 = sum(c * c for c in prods.values())
    lo, hi = min(prods), max(prods)
    if hi - lo <= 10**6:
        dense = np.zeros(hi - lo + 1, dtype=np.int64)
        for m, c in prods.items():
            dense[m - lo] = c
        corr = autocorrelation(dense)
        diffs = [int(v) for v in corr[corr != 0]]
    elif max(abs(lo), abs(hi)) < 2**61:
        vals = np.array(list(prods), dtype=np.int64)
        wts = np.array(list(prods.values()), dtype=np.int64)
        keys = np.subtract.outer(vals, vals).ravel()
        _, inverse = np.unique(keys, return_inverse=True)
        sums = np.bincount(inverse.ravel(), weights=np.multiply.outer(wts, wts).ravel())
        diffs = [int(v) for v in np.rint(sums)]
    else:
        table: Counter = Counter()
        for m1, c1 in prods.items():
            for m2, c2 in prods.items():
                table[m1 - m2] += c1 * c2
        diffs = list(table.values())
    return {"sup_r": max(diffs), "r0": r0, "i3": sum(v**3 for v in diffs)}


# --- the checker ---------------------------------------------------------------


class Checker:
    """Verifies job results; `check` raises CheckFailed or another exception
    on a mismatch."""

    def __init__(self, reference: dict):
        self.recorded = reference["closed_form"]
        self._memo: dict = {}

    def memo(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    # shared references

    def by_direction(self, n: int) -> int:
        from commucount.count2 import count_commuting_2x2_by_direction

        return self.memo(("by_direction", n), lambda: count_commuting_2x2_by_direction(n))

    def r_zero(self, n: int) -> int:
        return self.memo(("r_zero", n), lambda: r_zero_reference(n))

    def record(self, n: int) -> dict[str, int]:
        entry = self.recorded.get(str(n))
        expect(entry is not None, f"no recorded closed-form values for N={n}")
        return {k: int(v) for k, v in entry.items()}

    def table(self, n: int) -> np.ndarray:
        return self.memo(("table", n), lambda: autocorrelation(product_counts(n)))

    def padic_brute(self, p: int, n: int) -> int:
        from commucount.oracle import brute_padic_solutions

        return self.memo(("padic", p, n), lambda: brute_padic_solutions(p, n))

    def padic_classes(self, p: int, n: int):
        from commucount.oracle import brute_valuation_classes

        return self.memo(("classes", p, n), lambda: brute_valuation_classes(p, n).classes)

    def tau(self, limit: int) -> np.ndarray:
        return self.memo(("tau", limit), lambda: tau_table(limit))

    def dx(self, x: int, h: int) -> int:
        tau = self.tau(x + h)
        return int(np.dot(tau[1 : x + 1], tau[1 + h : x + h + 1]))

    def bound_ratio(self, n: int, h: int) -> Fraction:
        value = int(self.table(n)[2 * n * n + h])
        dsum = sum(Fraction(1, d) for d in range(1, n + 1) if abs(h) % d == 0)
        return Fraction(value) / (n * n * dsum)

    # library calls

    def check(self, job, result) -> None:
        name = job.target.replace(".", "_")
        getattr(self, "_" + name)(job, result)

    def _count2_count_commuting_2x2(self, job, result):
        (n,) = job.args
        expect(result == self.record(n)["count"], f"count2({n}) != recorded value")
        if n <= 300:
            expect(result == self.by_direction(n), f"count2({n}) != by-direction route")

    def _count2_gamma_split(self, job, result):
        (n,) = job.args
        rec = self.record(n)
        expect(
            (result.degenerate, result.nondegenerate) == (rec["degenerate"], rec["nondegenerate"]),
            f"gamma_split({n}) != recorded split",
        )
        if n <= 300:
            expect(sum(result) == self.by_direction(n), f"gamma_split({n}) sum != by-direction")

    def _divisor_r_zero(self, job, result):
        (n,) = job.args
        expect(result == self.record(n)["r_zero"], f"r_zero({n}) != recorded value")
        if n <= 2000:
            expect(result == self.r_zero(n), f"r_zero({n}) != gcd-sum identity")

    def _padic_fast_padic_count(self, job, result):
        (params,) = job.args
        p, n = params.p, params.n
        from commucount.padic import theorem13_main

        deviation = abs(Fraction(result, p ** (6 * n)) - theorem13_main(params))
        exact = Fraction(1, p**n) if n % 2 == 0 else Fraction(1, p ** (n + 3))
        expect(deviation == exact, f"fast_padic_count({p},{n}) misses the density identity")
        if p**n <= 13:
            expect(
                result == self.padic_brute(p, n) * p ** (2 * n),
                f"fast_padic_count({p},{n}) != oracle * p^2n",
            )

    def _padic_valuation_classes_fast(self, job, result):
        (params,) = job.args
        p, n = params.p, params.n
        from commucount.padic import fast_padic_count

        expect(
            result.total() * p ** (2 * n) == fast_padic_count(params),
            f"valuation_classes_fast({p},{n}) total != closed form",
        )
        if p**n <= 13:
            self._classes_match(p, n, self.padic_classes(p, n), result)

    def _classes_match(self, p, n, brute: dict, fast) -> None:
        top = (n + 1) // 2
        expect(
            all(fast.classes[h] == brute[h] for h in range(top))
            and fast.residual == sum(brute[h] for h in range(top, n + 1)),
            f"valuation classes ({p},{n}): closed form != oracle",
        )

    def _rank3_lower_bound_certificate(self, job, result):
        d, n = job.args
        value, _ = self.memo(("cert", d, n), lambda: certificate_reference(d, n))
        expect(result == value, f"lower_bound_certificate({d},{n}) != formula")

    def _divisor_r_table(self, job, result):
        (n,) = job.args
        ref = self.table(n)
        expect(result.n == n, "r_table carries the wrong N")
        hs = np.fromiter(result.values.keys(), dtype=np.int64, count=len(result.values))
        vs = np.fromiter(result.values.values(), dtype=np.int64, count=len(result.values))
        mine = np.zeros(4 * n * n + 1, dtype=np.int64)
        mine[hs + 2 * n * n] = vs
        expect(np.array_equal(mine, ref), f"r_table({n}) != FFT autocorrelation")
        expect(result.total() == (2 * n + 1) ** 4, f"r_table({n}) mass != (2N+1)^4")
        expect(np.array_equal(mine, mine[::-1]), f"r_table({n}) is not symmetric")
        expect(result.value(0) == self.r_zero(n), f"r_table({n}) center != r_zero identity")

    def _divisor_moment(self, job, result):
        n, k = job.args
        ref = self.memo(("moment", n, k), lambda: sum(int(v) ** k for v in self.table(n)))
        expect(result == ref, f"moment({n},{k}) != reference")

    def _divisor_divisor_bound_check(self, job, result):
        n, h = job.args
        expect(result == self.bound_ratio(n, h), f"divisor_bound_check({n},{h}) != reference")

    def _divisor_classic_divisor_correlation(self, job, result):
        x, h = job.args
        expect(result == self.dx(x, h), f"classic_divisor_correlation({x},{h}) != reference")

    def _divisor_lemma61_check(self, job, result):
        (values,) = job.args
        ref = self.memo(("lemma61", tuple(values)), lambda: lemma61_reference(values))
        expect(result == ref, f"lemma61_check({job.tag} set of {len(values)}) != reference")

    def _oracle_brute_commuting_count(self, job, result):
        d, n = job.args
        if d == 3:
            expect((n, result) == (1, README_COUNT3_N1), f"count3({n}) != README value")
        else:
            from commucount.count2 import count_commuting_2x2

            expect(result == count_commuting_2x2(n), f"brute 2x2 ({n}) != closed form")

    def _rank3_classify_commuting_3x3(self, job, result):
        (n,) = job.args
        expect((n, result.s) == (1, README_CLASSES_N1), f"classes({n}) != README values")

    def _oracle_brute_padic_solutions(self, job, result):
        p, n = job.args
        from commucount.padic import PadicParams, fast_padic_count

        expect(
            result * p ** (2 * n) == fast_padic_count(PadicParams(p, n)),
            f"brute_padic_solutions({p},{n}) * p^2n != closed form",
        )

    def _oracle_brute_valuation_classes(self, job, result):
        p, n = job.args
        from commucount.padic import PadicParams, valuation_classes_fast

        self._classes_match(p, n, result.classes, valuation_classes_fast(PadicParams(p, n)))

    # CLI invocations

    def check_cli_pass(self, jobs, outcomes) -> list[str | None]:
        """One verdict per invocation of a pass: None, or why it failed.
        `outcomes` holds (exit code, stdout bytes) per job."""
        first: dict[tuple, bytes] = {}
        verdicts = []
        for job, (code, out) in zip(jobs, outcomes):
            try:
                expect(code == 0, f"exit code {code}")
                lines = [json.loads(line) for line in out.decode().splitlines()]
                self._cli_values(job.args, lines)
                if job.args in first:
                    expect(out == first[job.args], "cache replay is not byte-identical")
                else:
                    first[job.args] = out
                verdicts.append(None)
            except Exception as exc:  # a failed invocation is counted, not fatal
                verdicts.append(f"{job.label()}: {exc!r}")
        return verdicts

    def _cli_values(self, argv: tuple, lines: list[dict]) -> None:
        command = argv[0]
        opts = dict(zip(argv[1::2], argv[2::2]))
        flags = set(argv[1:])
        value = lines[0]["value"] if lines else None
        diag = lines[0]["diagnostics"] if lines else {}
        if command == "count2":
            expect(value == str(self.by_direction(int(opts["--n"]))), "count2 value")
        elif command == "padic":
            p, n = int(opts["--p"]), int(opts["--n"])
            solutions = self.padic_brute(p, n)
            if opts.get("--method") == "classes":
                expect(value == str(solutions), "padic classes total")
                brute = self.padic_classes(p, n)
                top = (n + 1) // 2
                expect(
                    all(diag[f"class_{h}"] == str(brute[h]) for h in range(top))
                    and diag["residual"] == str(sum(brute[h] for h in range(top, n + 1))),
                    "padic classes breakdown",
                )
            else:
                expect(value == str(solutions * p ** (2 * n)), "padic value")
        elif command == "lowerbound":
            cert, e_d = certificate_reference(int(opts["--d"]), int(opts["--n"]))
            expect(value == str(cert) and diag["e_d"] == str(e_d), "lowerbound value")
        elif command == "divisor" and "--all" in flags:
            from commucount.oracle import brute_r_table

            n = int(opts["--n"])
            got = {line["params"]["h"]: int(line["value"]) for line in lines}
            expect(got == self.memo(("brute_r", n), lambda: brute_r_table(n)), "divisor --all")
        elif command == "divisor" and "--zero" in flags:
            expect(value == str(self.r_zero(int(opts["--n"]))), "divisor --zero value")
        elif command == "divisor":
            n, h = int(opts["--n"]), int(opts["--h"])
            expect(value == str(int(self.table(n)[2 * n * n + h])), "divisor --h value")
            expect(
                diag["divisor_bound_ratio"] == float(self.bound_ratio(n, h)),
                "divisor --h bound ratio",
            )
        elif command == "moments":
            n, k = int(opts["--n"]), int(opts["--k"])
            ref = self.memo(("moment", n, k), lambda: sum(int(v) ** k for v in self.table(n)))
            expect(value == str(ref), "moments value")
        elif command == "dx":
            expect(value == str(self.dx(int(opts["--x"]), int(opts["--h"]))), "dx value")
        elif command == "count3":
            expect(opts["--n"] == "0" and value == "1", "count3 --n 0 value")
        elif command == "demo4x4":
            expect(
                value == "1"
                and diag["samples"] == 100
                and diag["all_diagonals_vanish"] == 1
                and diag["all_infeasible"] == 1
                and diag["all_row7_zero"] == 1
                and diag["first_six_determinant"] == -2,
                "demo4x4 report",
            )
        else:
            raise CheckFailed(f"no reference for {command}")
