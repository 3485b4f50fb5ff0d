"""End-to-end checks of the command-line front end: output formats, exit
codes, and the one-file-per-key result cache.  Everything runs in-process
through cli.main() with the cache redirected into a temp directory.
"""

import csv
import hashlib
import io
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import commucount
from commucount import __version__
from commucount.cli import main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("COMMUCOUNT_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def test_count2_basics(capsys):
    code, out, err = run_cli(capsys, "count2", "--n", "1")
    assert code == 0
    (res,) = json_lines(out)
    assert res["value"] == "817"
    assert res["command"] == "count2"
    assert res["params"] == {"n": 1, "split": False}
    assert res["diagnostics"]["limit_constant"] == pytest.approx(4.5614425920673529)


def test_count2_split_partitions(capsys):
    code, out, _ = run_cli(capsys, "count2", "--n", "3", "--split")
    (res,) = json_lines(out)
    assert code == 0
    deg = int(res["diagnostics"]["degenerate"])
    nondeg = int(res["diagnostics"]["nondegenerate"])
    assert deg + nondeg == int(res["value"]) == 68673


@pytest.mark.parametrize("split", [False, True])
def test_count2_computes_the_count_once(capsys, monkeypatch, split):
    import commucount.count2 as count2

    calls = []
    original = count2._split_terms

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(count2, "_split_terms", counted)
    argv = ["count2", "--n", "7", "--no-cache"] + (["--split"] if split else [])
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and calls == [7]
    assert json_lines(out)[0]["diagnostics"]["normalized"] == float(
        count2.normalized_count_2x2(7)
    )


def test_count2_huge_value_roundtrips_as_string(capsys):
    _, out, _ = run_cli(capsys, "count2", "--n", "100000", "--no-cache")
    (res,) = json_lines(out)
    assert isinstance(res["value"], str)
    assert int(res["value"]) > 10**27


def test_count3_brute_and_classify_agree(capsys):
    code, out, _ = run_cli(capsys, "count3", "--n", "1")
    assert code == 0
    (plain,) = json_lines(out)
    code, out, _ = run_cli(capsys, "count3", "--n", "1", "--classify")
    assert code == 0
    (classified,) = json_lines(out)
    assert plain["value"] == classified["value"] == "375417"
    assert classified["diagnostics"]["s0"] == "729"


def test_padic_fast_vs_brute(capsys):
    _, out, _ = run_cli(capsys, "padic", "--p", "3", "--n", "1")
    (fast,) = json_lines(out)
    _, out, _ = run_cli(capsys, "padic", "--p", "3", "--n", "1", "--method", "brute")
    (brute,) = json_lines(out)
    assert fast["value"] == brute["value"] == "945"
    assert fast["diagnostics"]["sigma_p"] == "13/9"
    assert fast["diagnostics"]["main_term"] == "104/81"


def test_padic_classes(capsys):
    _, out, _ = run_cli(capsys, "padic", "--p", "2", "--n", "3", "--method", "classes")
    (res,) = json_lines(out)
    assert res["diagnostics"]["class_0"] == "5376"
    assert res["diagnostics"]["class_1"] == "1344"
    assert res["diagnostics"]["residual"] == "64"
    assert int(res["value"]) == 5376 + 1344 + 64


def test_padic_degenerate_and_the_oracle_modulus_cap(capsys):
    code, out, _ = run_cli(capsys, "padic", "--p", "2", "--n", "2", "--method", "degenerate")
    assert code == 0 and json_lines(out)[0]["value"] == "304"
    # q = 2^32: past the oracle's int64 cross products, a usage error even
    # with a budget that would cover the enumeration; the closed form runs.
    for method in ("brute", "degenerate"):
        code, out, err = run_cli(
            capsys, "padic", "--p", "2", "--n", "32", "--method", method, "--budget", "1" + "0" * 200
        )
        assert code == 2 and out == "" and "q^2 < 2^63" in err
    code, out, _ = run_cli(capsys, "padic", "--p", "2", "--n", "32")
    assert code == 0 and json_lines(out)[0]["diagnostics"]["sigma_p"] == "7/4"


def test_divisor_single_h(capsys):
    code, out, _ = run_cli(capsys, "divisor", "--n", "2", "--h", "1")
    assert code == 0
    (res,) = json_lines(out)
    assert res["params"] == {"n": 2, "h": 1}
    assert "divisor_bound_ratio" in res["diagnostics"]


def test_divisor_zero_routes(capsys):
    _, out_flag, _ = run_cli(capsys, "divisor", "--n", "50", "--zero")
    _, out_h0, _ = run_cli(capsys, "divisor", "--n", "50", "--h", "0")
    v1 = json_lines(out_flag)[0]
    v2 = json_lines(out_h0)[0]
    assert v1["value"] == v2["value"]
    assert "central_gap_per_n2" in v1["diagnostics"]


def test_divisor_all_streams_every_h(capsys):
    code, out, _ = run_cli(capsys, "divisor", "--n", "2", "--all")
    assert code == 0
    lines = json_lines(out)
    # products of [-2, 2] can never differ by exactly 7, so the support of
    # r_2 is -8..8 minus {-7, 7}: fifteen points.
    assert len(lines) == 15
    assert sum(int(line["value"]) for line in lines) == 5**4
    hs = [line["params"]["h"] for line in lines]
    assert hs == sorted(hs)
    assert 7 not in hs and -7 not in hs


def test_divisor_all_matches_the_oracle(capsys):
    from commucount.oracle import brute_r_table

    code, out, _ = run_cli(capsys, "divisor", "--n", "5", "--all")
    assert code == 0
    lines = json_lines(out)
    assert {line["params"]["h"]: int(line["value"]) for line in lines} == brute_r_table(5)
    assert [line["params"]["h"] for line in lines] == sorted(brute_r_table(5))


def test_invariant_violation_exits_4(capsys, monkeypatch):
    import commucount.divisor as divisor

    monkeypatch.setattr(divisor, "r_zero", lambda n, budget=None: 1)
    code, out, err = run_cli(capsys, "divisor", "--n", "5", "--all")
    assert code == 4
    assert out == ""
    assert "internal error" in err


def test_moments_and_dx(capsys):
    _, out, _ = run_cli(capsys, "moments", "--n", "1", "--k", "2")
    assert json_lines(out)[0]["value"] == "1921"
    _, out, _ = run_cli(capsys, "dx", "--x", "100", "--h", "2")
    res = json_lines(out)[0]
    assert int(res["value"]) > 0
    assert res["diagnostics"]["per_x_log2x"] > 0


@pytest.mark.parametrize("n, k", [(1, 300), (50, 190)])
def test_moments_past_the_float_range_gives_null_ratios(capsys, n, k):
    """I_k / N^(2k+2) leaves the float range here (at N = 1 it is I_k
    itself); the exact value is still printed, that ratio is null and the
    other one, I_k / (2N)^(2k+2), a float."""
    code, out, _ = run_cli(capsys, "moments", "--n", str(n), "--k", str(k))
    assert code == 0
    (res,) = json_lines(out)
    value = int(res["value"])
    assert value > 2**1024 * n ** (2 * k + 2)
    assert res["diagnostics"] == {
        "per_n_pow": None,
        "per_side_pow": value / (2 * n) ** (2 * k + 2),
    }
    code, out, _ = run_cli(capsys, "moments", "--n", str(n), "--k", str(k), "--format", "csv")
    assert code == 0
    assert "per_n_pow,null," in out


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_moments_past_the_digit_limit_exit_2_before_the_table(capsys, monkeypatch):
    # r_5(0) = 833, so I_k has more than 4300 digits from k = 1473 on; the
    # refusal comes from r_N(0)^k alone, before any table is built.
    def no_table(*args):
        raise AssertionError("the table was built")

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(commucount.divisor, "r_table", no_table)
            for k in ("1473", "1000000"):
                code, out, err = run_cli(capsys, "moments", "--n", "5", "--k", k)
                assert (code, out) == (2, "")
                assert "more than 4300 digits" in err
        code, out, _ = run_cli(capsys, "moments", "--n", "5", "--k", "1472")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert len(json_lines(out)[0]["value"]) == 4300


def test_doubling_with_lemma61(capsys, tmp_path):
    setfile = tmp_path / "ap.txt"
    setfile.write_text("1\n2\n3\n5/2\n")
    code, out, _ = run_cli(capsys, "doubling", "--set-file", str(setfile), "--lemma61")
    assert code == 0
    (res,) = json_lines(out)
    assert res["value"] == "2"  # |A+A| = 8 over |A| = 4
    assert res["diagnostics"]["set_size"] == 4
    assert res["diagnostics"]["sup_autocorrelation"] == res["diagnostics"][
        "autocorrelation_at_zero"
    ]


def test_lemma61_past_the_memory_caps_exits_2(capsys, tmp_path):
    # No --budget lifts the correlation's fixed memory caps, so this is a
    # usage error naming the caps, not a budget refusal.
    rng = np.random.default_rng(5)
    vals = rng.choice(2_000_000_001, 250, replace=False) - 10**9
    setfile = tmp_path / "wide.txt"
    setfile.write_text("".join(f"{v}\n" for v in vals))
    code, out, err = run_cli(capsys, "doubling", "--set-file", str(setfile), "--lemma61")
    assert code == 2
    assert out == ""
    assert "memory caps" in err and "raise the budget" not in err


def _interrupted_count(n, lo, hi):
    raise KeyboardInterrupt


def test_interrupt_inside_the_pool_exits_130(capsys, monkeypatch, time_limit):
    import commucount.oracle as oracle

    monkeypatch.setattr(oracle, "_count_range", _interrupted_count)
    with time_limit(60):
        code, out, err = run_cli(capsys, "count3", "--n", "1", "--threads", "2", "--no-cache")
    assert code == 130
    assert out == ""
    assert err.splitlines() == ["interrupted"]
    assert multiprocessing.active_children() == []


def test_lowerbound(capsys):
    _, out, _ = run_cli(capsys, "lowerbound", "--d", "2", "--n", "1")
    (res,) = json_lines(out)
    assert res["value"] == "553"
    assert res["diagnostics"]["e_d"] == "19"


def test_demo4x4_canonical(capsys):
    code, out, _ = run_cli(capsys, "demo4x4")
    assert code == 0
    (res,) = json_lines(out)
    assert res["value"] == "1"  # the witness Y entry on the zero row
    assert res["diagnostics"]["all_infeasible"] == 1
    assert res["diagnostics"]["first_six_determinant"] == -2
    assert res["diagnostics"]["samples"] == 1


def test_demo4x4_seeded_samples(capsys):
    _, out, _ = run_cli(capsys, "demo4x4", "--seed", "99")
    (res,) = json_lines(out)
    assert res["diagnostics"]["samples"] == 100
    assert res["diagnostics"]["all_diagonals_vanish"] == 1


# --- exit codes -------------------------------------------------------------------


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "count2")[0] == 2  # missing --n
    assert run_cli(capsys, "count2", "--n", "-3")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    code, _, err = run_cli(capsys, "padic", "--p", "6", "--n", "1")
    assert code == 2 and "not prime" in err
    code, _, err = run_cli(capsys, "doubling", "--set-file", "/does/not/exist")
    assert code == 2


# --- shared options -------------------------------------------------------------

# A minimal invocation of every command, and the shared options it takes.
COMMANDS = {
    "count2": ["count2", "--n", "1"],
    "count3": ["count3", "--n", "0"],
    "padic": ["padic", "--p", "2", "--n", "1"],
    "divisor": ["divisor", "--n", "2", "--h", "1"],
    "moments": ["moments", "--n", "1", "--k", "2"],
    "dx": ["dx", "--x", "10", "--h", "2"],
    "doubling": ["doubling", "--set-file", "a.txt"],
    "lowerbound": ["lowerbound", "--d", "2", "--n", "1"],
    "demo4x4": ["demo4x4"],
    "verify": ["verify", "--suite", "quick"],
}
SHARED = {
    "--format": (["--format", "csv"], "format", "csv"),
    "--no-cache": (["--no-cache"], "no_cache", True),
    "--budget": (["--budget", "7"], "budget", 7),
    "--threads": (["--threads", "3"], "threads", 3),
}
CACHED = {"count2", "count3", "padic", "divisor", "moments", "dx", "lowerbound"}
TAKES = {
    "--format": set(COMMANDS),
    "--no-cache": CACHED,
    "--budget": {"count2", "count3", "padic", "divisor", "moments", "doubling"},
    "--threads": {"count3", "verify"},
}


def test_shared_option_table_has_25_of_40_pairs():
    assert sum(len(commands) for commands in TAKES.values()) == 25
    assert len(COMMANDS) * len(SHARED) == 40


@pytest.mark.parametrize("option", sorted(SHARED))
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_takes_only_the_shared_options_it_reads(capsys, command, option):
    from commucount.cli import build_parser

    extra, dest, value = SHARED[option]
    argv = COMMANDS[command] + extra
    if command in TAKES[option]:
        assert getattr(build_parser().parse_args(argv), dest) == value
    else:
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {' '.join(extra)}" in err


def test_cached_commands_keep_their_cache_keys(capsys, isolated_cache):
    """The key of one invocation of each cached command, as stored before
    the shared options were registered per command; old caches keep hitting."""
    pinned = [
        ("count2 --n 3 --split",
         '{"command": "count2", "params": {"n": 3, "split": true}, "version": "V"}'),
        ("count3 --n 0 --classify",
         '{"command": "count3", "params": {"classify": true, "n": 0}, "version": "V"}'),
        ("padic --p 3 --n 1 --method classes",
         '{"command": "padic", "params": {"method": "classes", "n": 1, "p": 3}, "version": "V"}'),
        ("divisor --n 2 --h 1",
         '{"command": "divisor", "params": {"all": false, "h": 1, "n": 2, "zero": false}, '
         '"version": "V"}'),
        ("moments --n 1 --k 2",
         '{"command": "moments", "params": {"k": 2, "n": 1}, "version": "V"}'),
        ("dx --x 10 --h 2",
         '{"command": "dx", "params": {"h": 2, "x": 10}, "version": "V"}'),
        ("lowerbound --d 2 --n 1",
         '{"command": "lowerbound", "params": {"d": 2, "n": 1}, "version": "V"}'),
    ]
    assert {argv.split()[0] for argv, _ in pinned} == CACHED
    for argv, key in pinned:
        assert run_cli(capsys, *argv.split())[0] == 0
        key = key.replace('"V"', json.dumps(__version__))
        assert json.loads(entry_file(isolated_cache, key).read_text())["key"] == key
    assert len(entry_files(isolated_cache)) == len(pinned)


def test_verify_refuses_a_budget_before_running_a_criterion(capsys, monkeypatch):
    import commucount.cli as cli

    started = []
    monkeypatch.setattr(cli, "run_suite", lambda *args, **kwargs: started.append(args))
    code, out, err = run_cli(capsys, "verify", "--suite", "quick", "--budget", "1")
    assert code == 2 and out == "" and started == []
    assert "unrecognized arguments: --budget 1" in err


def test_count3_classify_past_the_key_packing_exits_2_promptly():
    proc = run_cli_process("count3", "--n", "5", "--classify", "--budget", "1000000000000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: n=5 overflows the int64 key packing"]


def test_count3_past_the_key_packing_exits_2_promptly():
    """The oracle checks its key packing before it charges the default
    budget, which n = 5 would exceed, and before it starts any worker."""
    proc = run_cli_process("count3", "--n", "5")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: n=5 overflows the int64 key packing"]


def test_count3_classify_at_n4_exits_3_promptly():
    """Under the default budget the two charges of the classification at
    n = 4 are refused together, before any id is canonicalized."""
    proc = run_cli_process("count3", "--n", "4", "--classify")
    assert proc.returncode == 3 and proc.stdout == ""
    assert "needs 90913428162 states, over the budget of 10000000000" in proc.stderr


def test_budget_refusal_exits_3(capsys):
    code, _, err = run_cli(capsys, "count3", "--n", "2", "--budget", "100")
    assert code == 3
    assert "budget" in err


def child_env():
    """This environment, with this package first on the child's path."""
    root = os.path.dirname(os.path.dirname(commucount.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([root, os.environ.get("PYTHONPATH", "")]))


def run_cli_process(*argv, timeout=10):
    """The CLI in a child process, killed (and the test failed) if it runs
    past `timeout` seconds."""
    return subprocess.run(
        [sys.executable, "-m", "commucount.cli", *argv, "--no-cache"],
        capture_output=True, text=True, timeout=timeout, env=child_env(),
    )


def test_padic_huge_prime_answers_promptly():
    proc = run_cli_process("padic", "--p", "1000000000000000003", "--n", "1")
    assert proc.returncode == 0
    (res,) = json_lines(proc.stdout)
    assert res["params"]["p"] == 10**18 + 3


def test_count2_far_beyond_budget_refuses_promptly():
    proc = run_cli_process("count2", "--n", "1000000000000000")
    assert proc.returncode == 3
    assert "budget" in proc.stderr


def test_count2_and_divisor_zero_charge_the_budget(capsys):
    assert run_cli(capsys, "count2", "--n", "1000", "--budget", "100")[0] == 3
    assert run_cli(capsys, "count2", "--n", "1000", "--split", "--budget", "100")[0] == 3
    assert run_cli(capsys, "divisor", "--n", "1000", "--zero", "--budget", "100")[0] == 3


def test_help_and_version_exit_0(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0


# --- formats ----------------------------------------------------------------------


def test_csv_format_matches_json(capsys):
    _, json_out, _ = run_cli(capsys, "count2", "--n", "4")
    _, csv_out, _ = run_cli(capsys, "count2", "--n", "4", "--format", "csv")
    res = json_lines(json_out)[0]
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert rows
    assert all(r["value"] == "254657" == res["value"] for r in rows)
    assert {r["diagnostic_name"] for r in rows} == set(res["diagnostics"])
    assert all(r["param_string"] == "n=4;split=False" for r in rows)


def test_csv_handles_diagnostic_free_results(capsys):
    _, csv_out, _ = run_cli(capsys, "divisor", "--n", "2", "--all", "--format", "csv")
    rows = list(csv.reader(io.StringIO(csv_out)))
    assert rows[0][0] == "command"
    assert len(rows) == 16  # header + 15 support points


def plain_leaves(obj):
    if isinstance(obj, dict):
        assert all(type(k) is str for k in obj)
        obj = list(obj.values())
    if isinstance(obj, (list, tuple)):
        return [leaf for item in obj for leaf in plain_leaves(item)]
    return [obj]


def test_handlers_return_only_plain_values(tmp_path):
    """Results reach json.dumps, the csv writer and the cache as the handlers
    return them, so every leaf of params and diagnostics must be a plain
    type, not a numpy scalar."""
    from commucount.cli import _HANDLERS, build_parser

    setfile = tmp_path / "a.txt"
    setfile.write_text("1\n2\n3/2\n-7\n")
    argvs = [
        "count2 --n 3 --split",
        "count3 --n 1 --classify",
        "padic --p 2 --n 2",
        "padic --p 2 --n 1 --method degenerate",
        "divisor --n 5 --zero",
        "divisor --n 5 --h 2",
        "moments --n 3 --k 3",
        "dx --x 100 --h 1",
        f"doubling --set-file {setfile} --lemma61",
        "lowerbound --d 3 --n 1",
        "demo4x4 --seed 3",
    ]
    assert {argv.split()[0] for argv in argvs} == set(_HANDLERS)
    for argv in argvs:
        args = build_parser().parse_args(argv.split())
        for res in _HANDLERS[args.command](args):
            leaves = plain_leaves([res["params"], res["diagnostics"]])
            assert {type(v) for v in leaves} <= {int, float, str, bool, type(None)}, argv


# --- the cache --------------------------------------------------------------------


def entry_file(cache_dir, key):
    return cache_dir / (hashlib.sha256(key.encode()).hexdigest() + ".json")


def entry_files(cache_dir):
    """Every file in the cache directory, temporary ones included."""
    return sorted(cache_dir.iterdir()) if cache_dir.exists() else []


def count2_entry(cache_dir, n):
    from commucount.cli import _cache_key

    return entry_file(cache_dir, _cache_key("count2", {"n": n, "split": False}))


def test_cache_replays_byte_identical(capsys, isolated_cache):
    _, first, _ = run_cli(capsys, "count2", "--n", "1000")
    (entry,) = entry_files(isolated_cache)
    assert entry == count2_entry(isolated_cache, 1000)
    stored = entry.stat()
    _, second, _ = run_cli(capsys, "count2", "--n", "1000")
    assert first == second  # including runtime_ms, replayed verbatim
    assert entry_files(isolated_cache) == [entry]
    assert (entry.stat().st_ino, entry.stat().st_mtime_ns) == (
        stored.st_ino, stored.st_mtime_ns
    )  # the hit did not re-store


def test_cache_distinguishes_params_and_version(capsys, isolated_cache):
    run_cli(capsys, "count2", "--n", "5")
    run_cli(capsys, "count2", "--n", "6")
    entries = entry_files(isolated_cache)
    assert entries == sorted(count2_entry(isolated_cache, n) for n in (5, 6))
    keys = [json.loads(json.loads(e.read_text())["key"]) for e in entries]
    assert sorted(k["params"]["n"] for k in keys) == [5, 6]
    assert all(k["version"] == __version__ for k in keys)


def test_no_cache_skips_storing(capsys, isolated_cache):
    run_cli(capsys, "count2", "--n", "7", "--no-cache")
    assert entry_files(isolated_cache) == []
    run_cli(capsys, "count2", "--n", "7")
    assert entry_files(isolated_cache) == [count2_entry(isolated_cache, 7)]


def test_divisor_all_is_never_cached(capsys, isolated_cache):
    run_cli(capsys, "divisor", "--n", "2", "--all")
    assert entry_files(isolated_cache) == []


def test_a_lookup_does_not_create_the_cache_directory(isolated_cache):
    from commucount.cli import cache_lookup

    assert cache_lookup("count2", {"n": 1, "split": False}) is None
    assert not isolated_cache.exists()


def test_a_lookup_opens_one_file_however_many_entries(isolated_cache, monkeypatch):
    import builtins

    from commucount.cli import cache_lookup, cache_store

    isolated_cache.mkdir()
    for i in range(10_000):
        entry_file(isolated_cache, f"unrelated {i}").write_text("{}")
    cache_store("dx", {"h": 1, "x": 10}, {"value": "stored"})
    opened = []
    real_open = builtins.open

    def spy(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    hit = cache_lookup("dx", {"h": 1, "x": 10})
    miss = cache_lookup("dx", {"h": 2, "x": 10})
    monkeypatch.undo()
    assert hit == {"value": "stored"} and miss is None
    assert len(opened) == 2


def assert_corrupt_entry_is_a_miss_then_overwritten(capsys, cache_dir, content):
    """An entry file holding `content` ("{key}": this key with a result that
    is not an object; "{other key}": another key) gives one warning and a
    miss, and the store that follows replaces it."""
    from commucount import count_commuting_2x2

    run_cli(capsys, "count2", "--n", "9")
    entry = count2_entry(cache_dir, 9)
    key = json.loads(entry.read_text())["key"]
    bad = {
        "{key}": json.dumps({"key": key, "result": 5}),
        "{other key}": json.dumps({"key": key.replace("9", "8"), "result": {"value": "8"}}),
    }.get(content, content)
    entry.write_text(bad, encoding="utf-8", errors="surrogateescape")
    code, out, err = run_cli(capsys, "count2", "--n", "9")
    assert code == 0
    assert err.count("corrupt") == 1
    assert json_lines(out)[0]["value"] == str(count_commuting_2x2(9))
    assert json.loads(entry.read_text())["key"] == key
    assert entry_files(cache_dir) == [entry]
    assert run_cli(capsys, "count2", "--n", "9")[::2] == (0, "")  # a clean hit


def test_corrupt_cache_lines_are_skipped_with_warning(capsys, isolated_cache):
    for content in ("this is not json", "\udcff"):  # the second is not UTF-8
        assert_corrupt_entry_is_a_miss_then_overwritten(capsys, isolated_cache, content)


@pytest.mark.parametrize("line", ["[1, 2]", '"x"', "5", "null", "{key}", "{other key}"])
def test_cache_lines_that_are_not_objects_are_skipped_with_warning(
    capsys, isolated_cache, line
):
    """Valid JSON that is not an object, holds another key, or holds a result
    that is not an object is a corrupt entry, not a crash."""
    assert_corrupt_entry_is_a_miss_then_overwritten(capsys, isolated_cache, line)


def test_cache_last_write_wins(capsys, isolated_cache):
    from commucount.cli import cache_lookup, cache_store

    params = {"n": 11, "split": False}
    cache_store("count2", params, {"value": "first"})
    cache_store("count2", params, {"value": "second"})
    assert cache_lookup("count2", params) == {"value": "second"}
    assert entry_files(isolated_cache) == [count2_entry(isolated_cache, 11)]
    _, out, _ = run_cli(capsys, "count2", "--n", "11")
    assert out == '{"value": "second"}\n'  # a hit replays the entry verbatim


def _store_repeatedly(cache_dir, worker, rounds):
    os.environ["COMMUCOUNT_CACHE_DIR"] = cache_dir
    from commucount.cli import cache_store

    for i in range(rounds):
        cache_store("dx", {"h": 1, "x": 10}, {"value": f"{worker}-{i}", "pad": "x" * 4096})


def test_concurrent_stores_never_expose_a_partial_entry(capsys, isolated_cache, time_limit):
    """Writers in other processes keep replacing one entry while this process
    reads it: every read is a miss before the first store, then a whole entry."""
    from commucount.cli import cache_lookup

    workers, rounds = 4, 200
    ctx = multiprocessing.get_context("spawn")
    procs = [
        ctx.Process(target=_store_repeatedly, args=(str(isolated_cache), w, rounds))
        for w in range(workers)
    ]
    with time_limit(60):
        for p in procs:
            p.start()
        seen = []
        while any(p.is_alive() for p in procs):
            hit = cache_lookup("dx", {"h": 1, "x": 10})
            if hit is not None:
                seen.append(hit["value"])
        for p in procs:
            p.join(10)
    assert all(not p.is_alive() and p.exitcode == 0 for p in procs)
    assert capsys.readouterr().err == ""  # no read saw a corrupt entry
    assert seen and all(v.split("-")[0] in {str(w) for w in range(workers)} for v in seen)
    assert cache_lookup("dx", {"h": 1, "x": 10})["value"].endswith(f"-{rounds - 1}")
    assert len(entry_files(isolated_cache)) == 1  # no temporary file left behind


def test_verify_is_exercised_through_acceptance():
    """The verify subcommand runs the full criterion battery.  Its rendering
    and exit codes are tested with stubbed suites in tests/test_verify.py,
    and tests/test_acceptance.py runs each criterion function directly, so
    this file only pins the parsing."""
    from commucount.cli import build_parser

    args = build_parser().parse_args(["verify", "--suite", "quick"])
    assert args.suite == "quick"


# --- start-up without numpy -----------------------------------------------------


def run_python(code, *argv):
    """`python -c code argv` in a child process that imports this package,
    its output decoded with the line ends as written."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, timeout=60, env=child_env()
    )
    proc.stdout, proc.stderr = proc.stdout.decode(), proc.stderr.decode()
    return proc


# Runs the CLI once for each argument list given as JSON, in one process, and
# prints for each run its exit code, its stdout and the numpy submodules
# imported so far.
REPORT_NUMPY = """
import contextlib, io, json, sys
from commucount.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue(), [m for m in sys.modules if m.startswith("numpy.")]])
print(json.dumps(runs))
"""


def zero_runtime(out):
    return re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', out)


def test_hits_help_and_integer_commands_start_without_numpy(capsys):
    hits = [["count2", "--n", "10"], ["count2", "--n", "10", "--format", "csv"]]
    misses = [
        ["--help"],
        ["lowerbound", "--d", "3", "--n", "4", "--no-cache"],
        ["padic", "--p", "5", "--n", "3", "--method", "fast", "--no-cache"],
    ]
    assert run_cli(capsys, "count2", "--n", "10")[0] == 0  # the entry the hits replay
    expected = [run_cli(capsys, *argv)[:2] for argv in hits + misses]
    proc = run_python(REPORT_NUMPY, json.dumps(hits + misses))
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [numpy for _, _, numpy in runs] == [[]] * len(runs)
    assert [code for code, _, _ in runs] == [code for code, _ in expected] == [0] * len(runs)
    outs = [out for _, out, _ in runs]
    assert outs[: len(hits)] == [out for _, out in expected[: len(hits)]]
    # a miss times itself
    assert [zero_runtime(out) for out in outs[len(hits) :]] == [
        zero_runtime(out) for _, out in expected[len(hits) :]
    ]


def test_import_commucount_imports_every_module_but_not_numpy():
    proc = run_python(
        "import json, sys, commucount\n"
        "print(json.dumps(sorted(sys.modules)))\n"
        "print(json.dumps([n for n in commucount.__all__ if not hasattr(commucount, n)]))"
    )
    modules, unresolved = (json.loads(line) for line in proc.stdout.splitlines())
    for name in ("core", "count2", "divisor", "errors", "oracle", "padic", "rank3"):
        assert f"commucount.{name}" in modules
    assert unresolved == []
    assert [m for m in modules if m.startswith("numpy.")] == []


# The same results with numpy imported before the package ("numpy-first") or
# after it; the package's np must be the numpy module either way.
SAMPLE_RESULTS = """
import sys
if sys.argv[1] == "numpy-first":
    import numpy
import commucount as cc
import numpy
print(cc.core.np is numpy is cc.divisor.np, type(numpy).__name__)
print(cc.count_commuting_2x2(40), cc.r_table(6).r.tolist(), cc.brute_commuting_count(2, 1))
print(cc.lemma61_check(list(range(-20, 23, 3))), cc.fast_padic_count(cc.PadicParams(3, 2)))
"""


def test_results_do_not_depend_on_when_numpy_is_imported():
    first, after = (run_python(SAMPLE_RESULTS, order) for order in ("numpy-first", "numpy-after"))
    assert first.returncode == after.returncode == 0, first.stderr + after.stderr
    assert first.stdout == after.stdout
    cc = commucount
    assert first.stdout.splitlines() == [
        "True module",
        f"{cc.count_commuting_2x2(40)} {cc.r_table(6).r.tolist()} {cc.brute_commuting_count(2, 1)}",
        f"{cc.lemma61_check(list(range(-20, 23, 3)))} {cc.fast_padic_count(cc.PadicParams(3, 2))}",
    ]


# Each worker reports whether numpy was imported when it was forked.
FORKED_NUMPY = """
import sys, types
from commucount import oracle

def numpy_loaded(n, lo, hi):
    return int(type(sys.modules["numpy"]) is types.ModuleType)

assert type(sys.modules["numpy"]) is not types.ModuleType
print(oracle._parallel_over_a(numpy_loaded, 1, 2))
"""


def test_the_pool_forks_after_numpy_is_imported():
    # So the workers share the parent's numpy pages instead of each
    # importing it.
    proc = run_python(FORKED_NUMPY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2"]


@pytest.mark.skipif(shutil.which("commucount") is None, reason="script not on PATH")
def test_console_script_smoke():
    out = subprocess.run(
        ["commucount", "--version"], capture_output=True, text=True, check=True
    )
    assert __version__ in out.stdout
