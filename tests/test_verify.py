"""Plumbing around the verification suites: the modulus gate, result
formatting, and the CLI verify wiring (exit codes, per-criterion lines).
The criterion functions themselves are exercised at full scale by
tests/test_acceptance.py.
"""

import csv
import io
import json

import numpy as np
import pytest

from commucount import cli
from commucount.verify import (
    CriterionResult,
    _padic_gate,
    _random_test_sets,
    criterion_classification,
    run_suite,
)


def test_padic_gate_1e8():
    got = _padic_gate(10**8)
    assert got == [
        (2, 1), (2, 2), (2, 3), (2, 4),
        (3, 1), (3, 2),
        (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1),
    ]


def test_padic_gate_1e9_adds_the_next_shell():
    small = set(_padic_gate(10**8))
    big = set(_padic_gate(10**9))
    assert big - small == {(3, 3), (5, 2), (23, 1), (29, 1), (31, 1)}


def test_criterion_result_line():
    ok = CriterionResult("3", "something holds", True, {})
    bad = CriterionResult("7b", "something else", False, {"x": 1})
    assert ok.line() == "[PASS] criterion 3: something holds"
    assert bad.line() == "[FAIL] criterion 7b: something else"


def test_run_suite_rejects_unknown_suite():
    with pytest.raises(ValueError, match="unknown suite"):
        list(run_suite("exhaustive"))


CRITERIA = [
    "criterion_oracle_2x2", "criterion_main_term", "criterion_split", "criterion_r_table",
    "criterion_moments", "criterion_padic_exact", "criterion_density_main",
    "criterion_lifting", "criterion_classification", "criterion_lower_bounds",
    "criterion_sup_autocorrelation", "criterion_demo_4x4",
    "extra_padic_deep", "extra_partial_sum_float",
]


@pytest.mark.parametrize("suite", ["quick", "full"])
def test_run_suite_wiring(monkeypatch, suite):
    """Each criterion replaced by a recording stub: the order of the calls,
    the suite's budget and every per-suite argument."""
    import commucount.verify as verify

    calls = []
    for name in CRITERIA:
        def stub(*args, _name=name, **kwargs):
            assert not args
            budget = kwargs.pop("budget", None)
            calls.append((_name, budget and budget.max_states, kwargs))
            return CriterionResult(_name, "stub", True, {})

        monkeypatch.setattr(verify, name, stub)
    yielded = [res.key for res in run_suite(suite, threads=3)]
    full = suite == "full"
    b = 10**10 if full else 10**8
    expected = [
        ("criterion_oracle_2x2", b, {}),
        ("criterion_main_term", None, {}),
        ("criterion_split", None, {}),
        ("criterion_r_table", b, {}),
        ("criterion_moments", b, {"ns": (50, 100, 200) if full else (20, 35, 50)}),
        ("criterion_padic_exact", b, {"limit": 10**9 if full else 10**8}),
        ("criterion_density_main", None, {}),
        ("criterion_lifting", b, {}),
        ("criterion_classification", b, {"ns": (1, 2) if full else (1,), "threads": 3}),
        ("criterion_lower_bounds", b, {"threads": 3}),
        ("criterion_sup_autocorrelation", b, {"gp_size": 500 if full else 200}),
        ("criterion_demo_4x4", None, {}),
    ]
    if full:
        expected += [("extra_padic_deep", b, {}), ("extra_partial_sum_float", None, {})]
    assert calls == expected
    assert yielded == [name for name, _, _ in expected]


def test_random_test_sets_cover_all_three_value_scales():
    rng = np.random.default_rng(1)
    sets = list(_random_test_sets(rng))
    assert len(sets) == 50
    biggest = [max(abs(v) for v in s) for s in sets]
    assert any(b <= 150 for b in biggest)
    assert any(150 < b <= 10**6 for b in biggest)
    assert any(b > 10**6 for b in biggest)
    # all sets are duplicate-free (sampling without replacement)
    assert all(len(set(s)) == len(s) for s in sets)


def test_classification_criterion_reports_a_broken_system_row(monkeypatch):
    import commucount.rank3 as rank3

    inner = rank3._pair_systems

    def broken(a_flat, bs):
        m, x, y = inner(a_flat, bs)
        y[:, 0] += 1
        return m, x, y

    monkeypatch.setattr(rank3, "_pair_systems", broken)
    res = criterion_classification(ns=(0,), threads=1)
    assert not res.passed
    assert "M X = Y" in res.details["error"]


def fake_suite(results):
    def _suite(suite, threads=None):
        yield from results
    return _suite


def test_cli_verify_all_pass(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("COMMUCOUNT_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(
        cli, "run_suite", fake_suite([CriterionResult("1", "fine", True, {"k": 2})])
    )
    code = cli.main(["verify", "--suite", "quick"])
    out = capsys.readouterr().out
    assert code == 0
    line = json.loads(out.strip())
    assert line["value"] == "1"
    assert line["params"] == {"suite": "quick", "criterion": "1"}
    assert line["diagnostics"]["name"] == "fine"
    assert "runtime_ms" in line


def test_cli_verify_failure_sets_exit_1(monkeypatch, capsys, tmp_path):
    """A failed criterion sets exit code 1 and is named on stderr; details,
    nested or not, are merged with the name into the diagnostics, and the
    CSV rows JSON-encode those that are not a number or a string."""
    monkeypatch.setenv("COMMUCOUNT_CACHE_DIR", str(tmp_path))
    details = {"classes": {"1": [36, 0]}, "ns": [20, 35], "largest": None}
    monkeypatch.setattr(
        cli,
        "run_suite",
        fake_suite(
            [
                CriterionResult("1", "fine", True, details),
                CriterionResult("2", "broken", False, details),
            ]
        ),
    )
    code = cli.main(["verify", "--suite", "full"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "failed criteria: 2\n"
    lines = [json.loads(s) for s in captured.out.splitlines()]
    assert [l["value"] for l in lines] == ["1", "0"]
    assert [l["diagnostics"] for l in lines] == [
        {"name": "fine", **details},
        {"name": "broken", **details},
    ]

    code = cli.main(["verify", "--suite", "full", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "failed criteria: 2\n"
    rows = list(csv.reader(io.StringIO(captured.out)))
    assert rows[0][:5] == ["command", "param_string", "value", "diagnostic_name", "diagnostic_value"]
    assert [row[:5] for row in rows[1:]] == [
        ["verify", f"criterion={key};suite=full", value, name, diagnostic]
        for key, value, label in (("1", "1", "fine"), ("2", "0", "broken"))
        for name, diagnostic in (
            ("classes", '{"1": [36, 0]}'),
            ("largest", "null"),
            ("name", label),
            ("ns", "[20, 35]"),
        )
    ]


def test_cli_verify_is_never_cached(monkeypatch, capsys, tmp_path):
    cache = tmp_path / "cache"
    monkeypatch.setenv("COMMUCOUNT_CACHE_DIR", str(cache))
    monkeypatch.setattr(
        cli, "run_suite", fake_suite([CriterionResult("1", "fine", True, {})])
    )
    assert cli.main(["verify", "--suite", "quick"]) == 0
    assert not cache.exists()
    assert cli.main(["dx", "--x", "10", "--h", "1"]) == 0  # a cached command does store
    capsys.readouterr()
    assert [p.suffix for p in cache.iterdir()] == [".json"]
