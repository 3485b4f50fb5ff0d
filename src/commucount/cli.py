"""Command-line front end.

Every invocation prints machine-readable result lines: JSON objects (one per
line) or CSV rows with --format csv.  Counts and exact ratios are rendered as
strings -- many values exceed what a double can hold -- so the "value" field
always round-trips exactly.  Each command takes --format and only the other
shared options its handler reads: --budget (_BUDGETED_COMMANDS; the verify
suites fix their own), --threads (_THREADED_COMMANDS) and --no-cache
(_CACHED_COMMANDS, whose single-value results are stored one JSON file per
key, named by the SHA-256 of command, canonical params and package version;
a hit replays the stored result verbatim).

Exit codes: 0 success, 1 failed verification criterion, 2 usage error,
3 work-budget refusal, 4 internal invariant violated (a defect, not bad
input), 130 interrupted (Ctrl-C; worker processes are terminated).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from . import __version__
from .count2 import count_commuting_2x2, gamma_split, normalized_count_2x2
from .core import dependent_pair_constant, main_term_constant_2x2, np
from .divisor import (
    classic_divisor_correlation,
    divisor_bound_check,
    doubling_report,
    lemma61_check,
    moment,
    parse_set_file,
    r_table,
    r_zero,
)
from .errors import BudgetExceeded, InvariantViolation
from .oracle import DEFAULT_MAX_STATES, WorkBudget
from .oracle import brute_commuting_count, brute_degenerate_padic, brute_padic_solutions
from .padic import (
    PadicParams,
    fast_padic_count,
    sigma_p,
    theorem13_main,
    valuation_classes_fast,
)
from .rank3 import classify_commuting_3x3, inconsistency_demo_4x4, lower_bound_certificate, lower_bound_E
from .verify import run_suite

_CACHED_COMMANDS = {"count2", "count3", "padic", "divisor", "moments", "dx", "lowerbound"}
_BUDGETED_COMMANDS = {"count2", "count3", "padic", "divisor", "moments", "doubling"}
_THREADED_COMMANDS = {"count3", "verify"}


def _fraction_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _pos_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commucount",
        description="Exact counts and diagnostics for commuting integer matrix pairs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if name in _CACHED_COMMANDS:
            p.add_argument("--no-cache", action="store_true")
        if name in _BUDGETED_COMMANDS:
            p.add_argument("--budget", type=_pos_int, default=DEFAULT_MAX_STATES, metavar="STATES")
        if name in _THREADED_COMMANDS:
            p.add_argument("--threads", type=_pos_int, default=None)
        return p

    p = command("count2", "2x2 commuting-pair count")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--split", action="store_true")

    p = command("count3", "3x3 commuting-pair count (brute)")
    p.add_argument("--n", type=_nonneg_int, required=True)
    p.add_argument("--classify", action="store_true")

    p = command("padic", "counts over Z/p^n")
    p.add_argument("--p", type=_pos_int, required=True)
    p.add_argument("--n", type=_pos_int, required=True)
    p.add_argument(
        "--method", choices=("fast", "brute", "classes", "degenerate"), default="fast"
    )

    p = command("divisor", "restricted divisor correlation r_N(h)")
    p.add_argument("--n", type=_pos_int, required=True)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--h", type=int, default=None)
    grp.add_argument("--all", action="store_true")
    grp.add_argument("--zero", action="store_true")

    p = command("moments", "moments of the correlation table")
    p.add_argument("--n", type=_pos_int, required=True)
    p.add_argument("--k", type=_pos_int, required=True)

    p = command("dx", "classical divisor correlation")
    p.add_argument("--x", type=_pos_int, required=True)
    p.add_argument("--h", type=_pos_int, required=True)

    p = command("doubling", "sumset statistics of a finite set")
    p.add_argument("--set-file", required=True)
    p.add_argument("--lemma61", action="store_true")

    p = command("lowerbound", "certified commuting-count lower bound")
    p.add_argument("--d", type=int, choices=(2, 3), required=True)
    p.add_argument("--n", type=_nonneg_int, required=True)

    p = command("demo4x4", "4x4 infeasible-system demonstration")
    p.add_argument("--seed", type=int, default=None)

    p = command("verify", "run a verification suite")
    p.add_argument("--suite", choices=("quick", "full"), required=True)

    return parser


# --- command handlers ---------------------------------------------------------


def _cmd_count2(args) -> list[dict]:
    budget = WorkBudget(args.budget)
    params = {"n": args.n, "split": args.split}
    if args.split:
        split = gamma_split(args.n, budget)
        value = split.degenerate + split.nondegenerate
    else:
        value = count_commuting_2x2(args.n, budget)
    diagnostics: dict = {}
    if args.n >= 1:
        diagnostics["normalized"] = float(normalized_count_2x2(args.n, count=value))
        diagnostics["limit_constant"] = float(main_term_constant_2x2())
    if args.split:
        diagnostics["degenerate"] = str(split.degenerate)
        diagnostics["nondegenerate"] = str(split.nondegenerate)
        if args.n >= 1:
            diagnostics["degenerate_per_side5"] = split.degenerate / (2 * args.n) ** 5
    return [_result("count2", params, str(value), diagnostics)]


def _cmd_count3(args) -> list[dict]:
    budget = WorkBudget(args.budget)
    params = {"n": args.n, "classify": args.classify}
    diagnostics: dict = {}
    if args.classify:
        rc = classify_commuting_3x3(args.n, budget, args.threads)
        value = rc.total()
        for i, c in enumerate(rc.s):
            diagnostics[f"s{i}"] = str(c)
        diagnostics["proportion_s2"] = rc.s[2] / value
        diagnostics["proportion_s4"] = rc.s[4] / value
    else:
        value = brute_commuting_count(3, args.n, budget, args.threads)
    return [_result("count3", params, str(value), diagnostics)]


def _cmd_padic(args) -> list[dict]:
    budget = WorkBudget(args.budget)
    params = {"p": args.p, "n": args.n, "method": args.method}
    pp = PadicParams(args.p, args.n)
    diagnostics: dict = {}
    if args.method == "fast":
        value = fast_padic_count(pp)
        diagnostics["density"] = value / args.p ** (6 * args.n)
        diagnostics["main_term"] = _fraction_str(theorem13_main(pp))
        diagnostics["sigma_p"] = _fraction_str(sigma_p(args.p))
    elif args.method == "brute":
        solutions = brute_padic_solutions(args.p, args.n, budget)
        value = args.p ** (2 * args.n) * solutions
        diagnostics["system_solutions"] = str(solutions)
    elif args.method == "classes":
        vc = valuation_classes_fast(pp)
        value = vc.total()
        for h, c in sorted(vc.classes.items()):
            diagnostics[f"class_{h}"] = str(c)
        diagnostics["residual"] = str(vc.residual)
    else:
        value = brute_degenerate_padic(args.p, args.n, budget)
        q = args.p**args.n
        diagnostics["per_n2_q72"] = value / (args.n**2 * q**3.5)
    return [_result("padic", params, str(value), diagnostics)]


def _cmd_divisor(args) -> list[dict]:
    budget = WorkBudget(args.budget)
    if args.all:
        table = r_table(args.n, budget)
        return [
            _result("divisor", {"n": args.n, "h": h}, str(value), {})
            for h, value in table.items()
        ]
    if args.zero or args.h is None or args.h == 0:
        value = r_zero(args.n, budget)
        predicted = float(dependent_pair_constant()) * args.n**2 * float(np.log(args.n)) if args.n > 1 else 0.0
        diagnostics = {"central_gap_per_n2": (value - predicted) / args.n**2}
        return [_result("divisor", {"n": args.n, "h": 0}, str(value), diagnostics)]
    table = r_table(args.n, budget)
    value = table.value(args.h)
    diagnostics = {
        "divisor_bound_ratio": float(divisor_bound_check(args.n, args.h, budget, table))
    }
    return [_result("divisor", {"n": args.n, "h": args.h}, str(value), diagnostics)]


def _float_ratio(num: int, den: int) -> float | None:
    """num / den as a float, or None (JSON null) past the float range."""
    try:
        return num / den
    except OverflowError:
        return None


def _refuse_unprintable_moment(n: int, k: int, budget: WorkBudget) -> None:
    """The moment I_k is at least r_N(0)^k, so when that alone has more
    digits than Python prints, refuse before the table is built.  With L
    the digits of r_N(0), r_N(0)^k has more than k(L - 1) and at most kL."""
    # Interpreters before 3.10.7 have no limit, as does a limit of 0.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0:
        return
    r0 = r_zero(n, budget)
    width = len(str(r0))
    if k * (width - 1) >= limit or (k * width > limit and r0**k >= 10**limit):
        raise ValueError(
            f"moment {k} at n = {n} has more than {limit} digits, past the "
            "interpreter's limit for printing an integer"
        )


def _cmd_moments(args) -> list[dict]:
    budget = WorkBudget(args.budget)
    _refuse_unprintable_moment(args.n, args.k, budget)
    value = moment(args.n, args.k, budget)
    diagnostics = {
        "per_n_pow": _float_ratio(value, args.n ** (2 * args.k + 2)),
        "per_side_pow": _float_ratio(value, (2 * args.n) ** (2 * args.k + 2)),
    }
    return [_result("moments", {"n": args.n, "k": args.k}, str(value), diagnostics)]


def _cmd_dx(args) -> list[dict]:
    value = classic_divisor_correlation(args.x, args.h)
    diagnostics = {"per_x_log2x": value / (args.x * float(np.log(args.x)) ** 2) if args.x > 1 else 0.0}
    return [_result("dx", {"x": args.x, "h": args.h}, str(value), diagnostics)]


def _cmd_doubling(args) -> list[dict]:
    budget = WorkBudget(args.budget)
    aset = parse_set_file(args.set_file)
    report = doubling_report(aset)
    diagnostics: dict = {
        "set_size": report.size,
        "sumset_size": report.sumset_size,
    }
    if args.lemma61:
        check = lemma61_check(aset, budget)
        diagnostics["sup_autocorrelation"] = str(check["sup_r"])
        diagnostics["autocorrelation_at_zero"] = str(check["r0"])
        diagnostics["third_moment"] = str(check["i3"])
    params = {"set_file": os.path.basename(args.set_file), "lemma61": args.lemma61}
    return [_result("doubling", params, _fraction_str(report.ratio), diagnostics)]


def _cmd_lowerbound(args) -> list[dict]:
    value = lower_bound_certificate(args.d, args.n)
    side = 2 * args.n + 1
    diagnostics = {
        "e_d": str(lower_bound_E(args.d, args.n)),
        "per_side_pow": value / side ** (args.d**2 + 1),
    }
    return [_result("lowerbound", {"d": args.d, "n": args.n}, str(value), diagnostics)]


def _cmd_demo4x4(args) -> list[dict]:
    if args.seed is None:
        samples = [(0, 0, 0, 0, 0, 0, 0, 0)]
    else:
        rng = np.random.default_rng(args.seed)
        samples = [tuple(int(v) for v in rng.integers(-3, 4, 8)) for _ in range(100)]
    reports = [inconsistency_demo_4x4(*s) for s in samples]
    first = reports[0]
    diagnostics = {
        "samples": len(reports),
        "all_diagonals_vanish": int(all(r["diagonal_vanishes"] for r in reports)),
        "all_infeasible": int(all(r["infeasible"] for r in reports)),
        "all_row7_zero": int(all(r["seventh_row_zero"] for r in reports)),
        "first_six_determinant": first["first_six_determinant"],
    }
    params = {"seed": args.seed}
    return [_result("demo4x4", params, str(first["seventh_y"]), diagnostics)]


def _cmd_verify(args) -> tuple[list[dict], int]:
    results = []
    failed = []
    last = time.monotonic()
    for res in run_suite(args.suite, threads=args.threads):
        now = time.monotonic()
        line = _result(
            "verify",
            {"suite": args.suite, "criterion": res.key},
            "1" if res.passed else "0",
            {"name": res.name, **res.details},
        )
        line["runtime_ms"] = int((now - last) * 1000)
        last = now
        results.append(line)
        if not res.passed:
            failed.append(res.key)
    if failed:
        print(f"failed criteria: {', '.join(failed)}", file=sys.stderr)
    return results, (1 if failed else 0)


_HANDLERS = {
    "count2": _cmd_count2,
    "count3": _cmd_count3,
    "padic": _cmd_padic,
    "divisor": _cmd_divisor,
    "moments": _cmd_moments,
    "dx": _cmd_dx,
    "doubling": _cmd_doubling,
    "lowerbound": _cmd_lowerbound,
    "demo4x4": _cmd_demo4x4,
}


# --- result plumbing -----------------------------------------------------------


def _result(command: str, params: dict, value: str, diagnostics: dict) -> dict:
    return {
        "command": command,
        "params": params,
        "value": value,
        "diagnostics": diagnostics,
    }


def _render(results: list[dict], fmt: str) -> None:
    if fmt == "json":
        for res in results:
            print(json.dumps(res, sort_keys=True))
        return
    import csv

    writer = csv.writer(sys.stdout)
    writer.writerow(
        ["command", "param_string", "value", "diagnostic_name", "diagnostic_value", "runtime_ms"]
    )
    for res in results:
        param_string = ";".join(f"{k}={res['params'][k]}" for k in sorted(res["params"]))
        diags = res["diagnostics"] or {"": ""}
        for name in sorted(diags):
            val = diags[name]
            if not isinstance(val, (int, float, str)):
                val = json.dumps(val, sort_keys=True)
            writer.writerow(
                [res["command"], param_string, res["value"], name, val, res["runtime_ms"]]
            )


# --- cache ----------------------------------------------------------------------


def _cache_path(key: str) -> str:
    import hashlib

    root = os.environ.get("COMMUCOUNT_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "commucount"
    )
    return os.path.join(root, hashlib.sha256(key.encode()).hexdigest() + ".json")


def _cache_key(command: str, params: dict) -> str:
    return json.dumps(
        {"command": command, "params": params, "version": __version__}, sort_keys=True
    )


def cache_lookup(command: str, params: dict) -> dict | None:
    key = _cache_key(command, params)
    try:
        with open(_cache_path(key), encoding="utf-8") as f:
            entry = json.load(f)
    except FileNotFoundError:
        return None
    except ValueError:  # not JSON, or not UTF-8
        entry = None
    # JSON that is not an object, holds another key or a non-object result is corrupt too.
    if isinstance(entry, dict) and entry.get("key") == key and isinstance(entry.get("result"), dict):
        return entry["result"]
    print("warning: ignoring a corrupt cache entry", file=sys.stderr)
    return None


def cache_store(command: str, params: dict, result: dict) -> None:
    """Write the entry to a temporary file and rename it over the old one, so
    a concurrent reader sees the old entry or the new one, never a mix."""
    import tempfile

    key = _cache_key(command, params)
    path = _cache_path(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=os.path.dirname(path))
    try:
        with open(fd, "w", encoding="utf-8") as f:
            json.dump({"key": key, "result": result}, f, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        if args.command == "verify":
            results, code = _cmd_verify(args)
            _render(results, args.format)
            return code

        params_for_key = None
        if args.command in _CACHED_COMMANDS and not args.no_cache:
            # cache only single-result invocations (divisor --all streams)
            if not (args.command == "divisor" and args.all):
                params_for_key = _params_snapshot(args)
                cached = cache_lookup(args.command, params_for_key)
                if cached is not None:
                    _render([cached], args.format)
                    return 0

        start = time.monotonic()
        results = _HANDLERS[args.command](args)
        elapsed_ms = int((time.monotonic() - start) * 1000)
        for res in results:
            res["runtime_ms"] = elapsed_ms
        _render(results, args.format)
        if params_for_key is not None:
            cache_store(args.command, params_for_key, results[0])
        return 0
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _params_snapshot(args) -> dict:
    skip = {"command", "format", "no_cache", "budget", "threads"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


if __name__ == "__main__":
    sys.exit(main())
