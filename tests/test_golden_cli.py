"""Byte-exact command-line outputs, pinned against files in tests/golden.

The inputs are those of demos/command_line_tour.sh, plus the d = 6,
n_max = 8 table, `check` on the output of `construct 6 30` for both
classes, and a two-worker checkpointed verify whose checkpoint journal
is pinned byte for byte too. The two `realize` calls of the tour are left
out: their answer depends on a wall-clock budget, so a slow machine may
print "timed-out" where a fast one prints the result. The three `realize`
cases here run with `--timeout inf`, so their answers are fixed.

Each file holds the standard output of `planarext ARGV`, which exits 0.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from planarext import oracle
from planarext.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "bound": ["bound", "6", "8"],
    "bound_general": ["bound", "6", "8", "--class", "general"],
    "bound_outerplanar": ["bound", "6", "8", "--class", "outerplanar"],
    "construct": ["construct", "5", "4"],
    "construct_json": ["construct", "5", "4", "--format", "json"],
    "construct_dot": ["construct", "4", "3", "--format", "dot"],
    "check": ["check", "D]w", "--d", "4", "--nu", "3"],
    "table_d4": ["table", "--d", "4", "--n-max", "7"],
    "verify_d4": ["verify", "--d", "4", "--nu", "5", "--n-max", "7"],
    "color": ["color", "D]w"],
    "table_d6": ["table", "--d", "6", "--n-max", "8"],
    "realize_4x6": ["realize", "4^6", "--timeout", "inf"],
    "realize_4x7": ["realize", "4^7", "--timeout", "inf"],
    "realize_5x10_4": ["realize", "5^10", "4", "--timeout", "inf"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_stdout(name, monkeypatch, capsys):
    # a cold table cache, so that table and verify enumerate afresh
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


# the planar union has 29 components (four A7s, a 5-star), the general one 11
# (nine K'_6s, which are not planar, and two 5-stars)
CHECKED_CONSTRUCTIONS = {
    "check_construct": ["6", "30"],
    "check_construct_general": ["6", "30", "--class", "general"],
}


@pytest.mark.parametrize("name", sorted(CHECKED_CONSTRUCTIONS))
def test_golden_check_of_construct(name, capsys):
    assert main(["construct", *CHECKED_CONSTRUCTIONS[name]]) == 0
    g6 = capsys.readouterr().out.strip()
    code = main(["check", g6, "--d", "6", "--nu", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_golden_checkpointed_verify(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    path = tmp_path / "ck.txt"
    argv = ["verify", "--d", "6", "--nu", "4", "--n-max", "8", "--workers", "2"]
    code = main(argv + ["--checkpoint", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    name = "verify_d6_checkpoint"
    assert out == (GOLDEN / f"{name}.out").read_text()
    # the journal is the only file, byte for byte the pinned one
    assert list(tmp_path.iterdir()) == [path]
    journal = path.read_bytes()
    assert json.loads(journal.splitlines()[0]) == {"format": 1, "d": 6, "n_max": 8}
    assert journal == (GOLDEN / f"{name}.journal").read_bytes()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_golden_verify_resumed_from_the_pinned_journal(tmp_path, monkeypatch, capsys, workers):
    # every root is in the journal: nothing is computed, nothing appended
    def no_subtree(args):
        raise AssertionError("a subtree was computed")

    name = "verify_d6_checkpoint"
    path = tmp_path / "ck.txt"
    path.write_bytes((GOLDEN / f"{name}.journal").read_bytes())
    monkeypatch.setattr(oracle, "_subtree_worker", no_subtree)
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    argv = ["verify", "--d", "6", "--nu", "4", "--n-max", "8", "--workers", workers]
    code = main(argv + ["--checkpoint", str(path)])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()
    assert path.read_bytes() == (GOLDEN / f"{name}.journal").read_bytes()
