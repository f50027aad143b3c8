from __future__ import annotations

import json
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

from planarext import (
    BudgetExceededError,
    ComponentRecord,
    FalsificationError,
    atlas,
    build_graph,
    canonical_form,
    combine,
    component_table,
    graph6_encode,
    is_connected,
    is_planar,
    matching_number,
    max_degree,
    max_edges_planar,
    star,
    verify_theorem,
)
from planarext import oracle
from planarext.oracle import _component_cap

from oracles import reference_component_witnesses, reference_verify_theorem


GOLDEN = Path(__file__).parent / "golden"

EXPECTED_TABLES = {
    (3, 5): {1: 3, 2: 5},
    (4, 7): {1: 3, 2: 7, 3: 10},
    (5, 7): {1: 4, 2: 9, 3: 13},
}


def test_component_tables_small_d():
    for (d, n_max), expected in EXPECTED_TABLES.items():
        records = component_table(d, n_max)
        assert {r.mu: r.best_edges for r in records} == expected
        for r in records:
            assert r.exhaustive == (2 * r.mu + 1 <= n_max)
            assert is_connected(r.witness)
            assert is_planar(r.witness).verdict
            assert max_degree(r.witness) < d
            assert matching_number(r.witness) == r.mu
            assert r.witness.m == r.best_edges


def test_component_witness_identities():
    records = component_table(5, 7)
    by_mu = {r.mu: r for r in records}
    assert canonical_form(by_mu[1].witness) == canonical_form(star(4))
    assert canonical_form(by_mu[2].witness) == canonical_form(atlas("K5_MINUS"))


def test_component_table_star_injection():
    records = component_table(9, 5)
    by_mu = {r.mu: r for r in records}
    assert by_mu[1].best_edges == 8  # the 8-star, injected analytically
    assert by_mu[1].exhaustive
    assert canonical_form(by_mu[1].witness) == canonical_form(star(8))


def test_exhaustive_witnesses_respect_size_caps():
    for (d, n_max) in EXPECTED_TABLES:
        for r in component_table(d, n_max):
            if r.exhaustive and r.mu > 1:
                n = 2 * r.mu + 1
                assert r.best_edges <= min(3 * n - 6, (d - 1) * n // 2)


def test_combine_examples():
    d5 = component_table(5, 7)
    assert combine(d5, 4) == 13  # one K5-minus block plus one 4-star
    assert combine(d5, 1) == 0
    assert combine(d5, 2) == 4
    assert combine(d5, 5) == 18
    d3 = component_table(3, 5)
    assert combine(d3, 4) == 9  # three triangles


def test_combine_monotone_and_superadditive():
    table = component_table(4, 7)
    values = [combine(table, nu) for nu in range(1, 12)]
    assert all(a <= b for a, b in zip(values, values[1:]))
    for nu1 in range(1, 6):
        for nu2 in range(1, 6):
            assert combine(table, nu1 + nu2 - 1) >= combine(table, nu1) + combine(
                table, nu2
            )


def test_combine_on_synthetic_table():
    g5 = star(5)
    rec = ComponentRecord(mu=1, best_edges=5, witness=g5, exhaustive=True)
    assert combine([rec], 4) == 15
    assert combine([], 7) == 0


def test_verify_confirmed_grid():
    for d, n_max in ((3, 5), (4, 7), (5, 7)):
        for nu in range(2, 9):
            verdict = verify_theorem(d, nu, n_max)
            assert verdict.status == "confirmed", (d, nu, verdict)
            assert verdict.oracle_value == verdict.formula_value
            assert verdict.formula_value == max_edges_planar(d, nu)


def test_verify_matches_per_mu_knapsack_reference():
    for d, n_max in ((3, 5), (4, 7), (5, 7), (6, 8)):
        for nu in range(1, 100):
            assert verify_theorem(d, nu, n_max) == reference_verify_theorem(d, nu, n_max)


def test_verify_solves_one_domination_row(monkeypatch):
    rows = []
    build_row = oracle._knapsack_row

    def counted(table, budget):
        rows.append(budget)
        return build_row(table, budget)

    monkeypatch.setattr(oracle, "_knapsack_row", counted)
    v = verify_theorem(4, 500, 7)
    assert v.status == "confirmed" and v.oracle_value == max_edges_planar(4, 500)
    assert rows == [499, 499]  # the oracle value, then every mu's domination check


def test_verify_documented_examples():
    v = verify_theorem(5, 5, 7)
    assert (v.status, v.oracle_value, v.formula_value) == ("confirmed", 18, 18)
    v = verify_theorem(3, 4, 5)
    assert (v.status, v.oracle_value, v.formula_value) == ("confirmed", 9, 9)


def test_verify_analytic_star_classes():
    # d above n_max: every record is a star, dominance settles it
    for d in (7, 8, 9):
        v = verify_theorem(d, 5, 3)
        assert v.status == "confirmed"
        assert v.oracle_value == (d - 1) * 4
    v = verify_theorem(2, 6, 3)
    assert v.status == "confirmed" and v.oracle_value == 5


def test_component_cap_shape():
    assert _component_cap(6, 5) == 27  # min(3*11-6, 5*11//2)
    assert _component_cap(6, 6) == 32
    assert _component_cap(3, 2) == 5
    assert _component_cap(9, 1) == 8  # stars beat the factor-critical cap


def test_falsification_aborts_verify(monkeypatch):
    # a poisoned record better than anything planar must abort loudly
    fake = ComponentRecord(mu=1, best_edges=99, witness=star(4), exhaustive=True)
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {(17, 3): ((fake,), frozenset())})
    with pytest.raises(FalsificationError) as info:
        verify_theorem(17, 2, 3)
    assert info.value.oracle_value == 99
    assert info.value.formula_value == 16
    assert "formula" in str(info.value)


def _rows(table):
    return [(r.mu, r.best_edges, canonical_form(r.witness)) for r in table]


def test_checkpoint_resume_and_worker_determinism(tmp_path, monkeypatch):
    # n_max above the shard order so subtree roots actually exist
    path = tmp_path / "check.txt"
    serial = component_table(4, 7)
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    assert _rows(component_table(4, 7, checkpoint=str(path))) == _rows(serial)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["check.txt"]
    journal = path.read_bytes()
    header, *entries = map(json.loads, journal.splitlines())
    assert header == {"format": 1, "d": 4, "n_max": 7}
    roots = [root for root, _records in entries]
    assert roots == sorted(set(roots)) and roots

    # resume: drop the last finished root, rebuild only that one
    path.write_bytes(journal[: journal.rindex(b"\n", 0, -1) + 1])
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    assert _rows(component_table(4, 7, checkpoint=str(path))) == _rows(serial)
    assert path.read_bytes() == journal

    # two workers write the same journal, byte for byte
    path2 = tmp_path / "par.txt"
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    assert _rows(component_table(4, 7, workers=2, checkpoint=str(path2))) == _rows(serial)
    assert path2.read_bytes() == journal


def test_checkpoint_torn_last_line_is_recomputed(tmp_path, monkeypatch):
    # an interrupted append leaves a last line without its newline
    path = tmp_path / "check.txt"
    serial = component_table(4, 7)
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    component_table(4, 7, checkpoint=str(path))
    journal = path.read_bytes()
    header_end = journal.index(b"\n") + 1
    for torn in (journal[:-1], journal[:-9], journal[: header_end - 1], journal[:5]):
        path.write_bytes(torn)
        monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
        assert _rows(component_table(4, 7, checkpoint=str(path))) == _rows(serial)
        assert path.read_bytes() == journal


def test_cached_table_does_not_skip_a_refused_journal(tmp_path, monkeypatch):
    path = tmp_path / "check.txt"
    path.write_bytes(b"not a journal\n")
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    component_table(6, 7)
    with pytest.raises(ValueError, match="is not a journal for d=6, n_max=7"):
        verify_theorem(6, 3, 7, checkpoint=str(path))
    assert path.read_bytes() == b"not a journal\n"


def test_cached_table_does_not_skip_a_requested_journal(tmp_path, monkeypatch):
    cold, warm = tmp_path / "cold.txt", tmp_path / "warm.txt"
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    verify_theorem(6, 3, 7, checkpoint=str(cold))
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    component_table(6, 7)
    assert verify_theorem(6, 3, 7, checkpoint=str(warm)).status == "confirmed"
    assert warm.read_bytes() == cold.read_bytes() != b""
    # the same checkpoint again is served from the cache
    warm.write_bytes(b"not a journal\n")
    assert verify_theorem(6, 3, 7, checkpoint=str(warm)).status == "confirmed"


def test_checkpoint_parameter_mismatch(tmp_path, monkeypatch):
    path = str(tmp_path / "check.txt")
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    component_table(3, 7, checkpoint=path)
    with pytest.raises(ValueError, match="is not a journal for d=4, n_max=7"):
        component_table(4, 7, checkpoint=path)


def test_checkpoint_record_that_disagrees_with_its_key(tmp_path, monkeypatch):
    path = tmp_path / "check.txt"
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    component_table(4, 7, checkpoint=str(path))
    header, *clean = path.read_text().splitlines(keepends=True)

    def moved(payload):
        payload["8"] = payload.pop("3")

    def shrunk(payload):
        payload["3"][0] -= 1

    def grown(payload):
        payload["3"][0] += 1

    for corrupt in (moved, shrunk, grown):
        entries = [json.loads(line) for line in clean]
        bad = next(entry for entry in entries if "3" in entry[1])
        corrupt(bad[1])
        # with a root left to compute, the bad record still fails first
        entries.remove(next(entry for entry in entries if entry is not bad))
        journal = header + "".join(json.dumps(e) + "\n" for e in entries)
        path.write_text(journal)
        monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
        with pytest.raises(ValueError, match="does not match its witness"):
            component_table(4, 7, checkpoint=str(path))
        assert path.read_text() == journal


def _k5_under_mu_2(payload):
    payload["2"] = [10, "D~{"]


def _mu_3_moved_to_8(payload):
    payload["8"] = payload.pop("3")


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_k5_under_mu_2, "checkpoint witness for mu=2 is not a connected planar graph"),
        (_mu_3_moved_to_8, "checkpoint record for mu=8 does not match its witness"),
    ],
    ids=["K5", "moved-key"],
)
def test_refused_journal_keeps_its_torn_last_line(tmp_path, monkeypatch, corrupt, message):
    # the torn tail would be cut on resume, but a bad record earlier
    # refuses the journal first, and a refused journal is left as it was
    path = tmp_path / "check.txt"
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    component_table(4, 7, checkpoint=str(path))
    header, *clean = path.read_text().splitlines(keepends=True)
    entries = [json.loads(line) for line in clean]
    corrupt(next(records for _root, records in entries if "2" in records and "3" in records))
    journal = header + "".join(json.dumps(e) + "\n" for e in entries) + '["abc", {'
    path.write_text(journal)
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    with pytest.raises(ValueError, match=message):
        component_table(4, 7, checkpoint=str(path))
    assert path.read_text() == journal


def _golden_journal_with(tmp_path, edit):
    """The pinned d = 6, n_max = 8 journal with edit() applied to its lines."""
    lines = (GOLDEN / "verify_d6_checkpoint.journal").read_text().splitlines(keepends=True)
    path = tmp_path / "ck.journal"
    path.write_text("".join(edit(lines)))
    return path


@pytest.mark.parametrize(
    "root_line",
    # the star K_{1,5}, the only 5-edge record at mu = 1, and K_{1,4} below it
    ['["060896",{}]\n', '["060896",{"1":[4,"Ds_"]}]\n'],
    ids=["empty", "lowered"],
)
def test_root_line_without_the_root_itself_is_refused(tmp_path, monkeypatch, root_line):
    # accepted, either line would make verify(6, 2, 8) print 4 for 5
    path = _golden_journal_with(tmp_path, lambda lines: [lines[0], root_line] + lines[2:])
    journal = path.read_bytes()
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    with pytest.raises(ValueError) as refused:
        component_table(6, 8, checkpoint=str(path))
    assert str(refused.value) == (
        f"checkpoint {path} line 2: root 060896 has no record at mu=1 with at least its 5 edges"
    )
    assert path.read_bytes() == journal


def test_record_outside_the_subtree_orders_is_refused(tmp_path, monkeypatch):
    # A7 (15 vertices, 37 edges) is a class member at mu = 7, but every
    # record of a subtree has 6 to n_max = 8 vertices: accepted, it made
    # verify(6, 8, 8) print realizable-only with 37, not inconclusive with 35
    def with_a7(lines):
        root, records = json.loads(lines[1])
        records["7"] = [37, "N|fIJCoEG@`b?o?Y_Pw"]
        line = json.dumps([root, records], separators=(",", ":"), sort_keys=True)
        return [lines[0], line + "\n"] + lines[2:]

    path = _golden_journal_with(tmp_path, with_a7)
    journal = path.read_bytes()
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    with pytest.raises(ValueError) as refused:
        component_table(6, 8, checkpoint=str(path))
    assert str(refused.value) == (
        f"checkpoint {path} line 2: root 060896 has a record with "
        "fewer than its 6 or more than 8 vertices"
    )
    assert path.read_bytes() == journal


@pytest.mark.parametrize(
    "record,message",
    [
        ('"01":[5,"Esa?"],"1":[5,"Esa?"]', "record for mu='01' is not an [edges, graph6] pair"),
        ('"1":[5,"Esa?"],"1":[5,"Esa?"]', "line 2 does not map roots to records"),
    ],
    ids=["leading-zero", "repeated"],
)
def test_root_line_with_a_key_no_run_writes_is_refused(tmp_path, monkeypatch, record, message):
    # accepted, either line would resume to the golden verdict as if unedited
    def edit(lines):
        assert lines[1].startswith('["060896",{"1":[5,"Esa?"],')
        return [lines[0], lines[1].replace('"1":[5,"Esa?"]', record, 1)] + lines[2:]

    path = _golden_journal_with(tmp_path, edit)
    journal = path.read_bytes()
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    with pytest.raises(ValueError) as refused:
        verify_theorem(6, 4, 8, checkpoint=str(path))
    assert message in str(refused.value)
    assert path.read_bytes() == journal


def _mutant(rng, lines):
    """The lines with one random flip, deletion, insertion or truncation below the header."""
    body = "".join(lines[1:])
    at = rng.randrange(len(body))
    kind = rng.randrange(4)
    if kind == 0:  # one bit of one character
        body = body[:at] + chr(ord(body[at]) ^ 1 << rng.randrange(7)) + body[at + 1 :]
    elif kind == 1:  # one whole line
        del lines[rng.randrange(1, len(lines))]
        return lines
    elif kind == 2:  # one character, one the journal uses
        body = body[:at] + rng.choice(body) + body[at:]
    else:
        body = body[:at]
    return [lines[0], body]


def test_mutated_journal_is_refused_or_resumes_to_the_golden_table(tmp_path, monkeypatch):
    golden = _rows(component_table(6, 8))
    rng = random.Random(11)
    refused = 0
    for _ in range(40):
        path = _golden_journal_with(tmp_path, lambda lines: _mutant(rng, lines))
        journal = path.read_bytes()
        monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
        try:
            table = component_table(6, 8, checkpoint=str(path))
        except ValueError:
            refused += 1
            assert path.read_bytes() == journal
        else:
            assert _rows(table) == golden, journal
    assert 0 < refused < 40


def test_serial_table_does_each_piece_of_work_once(monkeypatch):
    # without a journal, no witness is encoded or decoded, and each
    # record's planarity is certified once, by the final check
    def no_codec(*args):
        raise AssertionError("graph6 used outside the journal")

    calls = []

    def counted_is_planar(g):
        calls.append(g)
        return is_planar(g)

    monkeypatch.setattr(oracle, "graph6_encode", no_codec)
    monkeypatch.setattr(oracle, "graph6_decode", no_codec)
    monkeypatch.setattr(oracle, "is_planar", counted_is_planar)
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    table = component_table(6, 8)
    pinned = json.loads((GOLDEN / "table_d6.out").read_text())
    assert [
        {
            "mu": r.mu,
            "best_edges": r.best_edges,
            "exhaustive": r.exhaustive,
            "witness_g6": graph6_encode(r.witness),
        }
        for r in table
    ] == pinned
    assert calls == [r.witness for r in table]


def test_worker_count_is_capped_by_pending_roots(monkeypatch):
    # a fork pool starts every worker at the first submit: never ask for
    # more processes than there are roots to run
    import concurrent.futures

    seen = {}

    class SerialPool:
        def __init__(self, max_workers):
            seen["max_workers"] = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            seen["jobs"] = len(jobs)
            return map(fn, jobs)

    serial = component_table(4, 7)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    assert component_table(4, 7, workers=10_000) == serial
    assert 1 < seen["max_workers"] <= seen["jobs"]


def test_rejects_degenerate_d():
    with pytest.raises(ValueError):
        component_table(1, 5)


def test_rejects_nonsensical_sizes():
    for n_max, workers in ((0, 1), (-3, 1), (5, 0), (5, -2)):
        with pytest.raises(ValueError):
            component_table(4, n_max, workers=workers)
    with pytest.raises(ValueError):
        verify_theorem(6, 3, 0)


def test_rejects_an_empty_checkpoint_path(tmp_path, monkeypatch):
    # "" names no file, so no run may take it for a journal, nor skip the
    # check by taking the table from the cache
    monkeypatch.chdir(tmp_path)
    component_table(5, 7)
    for call in (
        lambda: component_table(5, 7, checkpoint=""),
        lambda: component_table(5, 5, checkpoint=""),
        lambda: verify_theorem(5, 3, 7, checkpoint=""),
    ):
        with pytest.raises(ValueError, match="^checkpoint path must not be empty$"):
            call()
    assert list(tmp_path.iterdir()) == []


def test_verify_rejects_nu_out_of_range_before_the_table(monkeypatch):
    def no_table(*args, **kwargs):
        raise AssertionError("the table was built")

    monkeypatch.setattr(oracle, "component_table", no_table)
    for nu in (0, -3, 10**6 + 1, 10**9):
        with pytest.raises(ValueError, match="^nu must be between 1 and 1000000$"):
            verify_theorem(6, nu, 8)


def test_table_over_budget_fails_before_any_work(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(oracle, "_walk", no_enumeration)
    for call in (
        lambda: component_table(6, 11),
        lambda: component_table(6, 11, workers=2),
        lambda: verify_theorem(6, 4, 11),
    ):
        with pytest.raises(BudgetExceededError, match="budget is 10 vertices, got 11"):
            call()
    # the star witness K_{1,d-1} has d vertices, more than graph6 can print
    for call in (
        lambda: component_table(258048, 3),
        lambda: component_table(10**8, 3, workers=2),
        lambda: verify_theorem(258048, 2, 3),
    ):
        with pytest.raises(ValueError, match="at most 258047 vertices, the star witness has"):
            call()


@pytest.mark.parametrize("journal", [False, True])
def test_second_verify_reads_the_cached_table(tmp_path, monkeypatch, journal):
    # a second nu under the same (d, n_max) must not enumerate again
    kwargs = {"checkpoint": str(tmp_path / "check.txt")} if journal else {}
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    first = verify_theorem(6, 4, 8, **kwargs)
    a, b, c = (tmp_path / f"{name}.txt" for name in "abc")
    table = component_table(4, 7, checkpoint=str(a))
    component_table(4, 7, checkpoint=str(b))
    walk = oracle._walk

    def no_enumeration(*args):
        raise AssertionError("enumerated again")

    monkeypatch.setattr(oracle, "_walk", no_enumeration)
    assert verify_theorem(6, 9, 8, **kwargs) == reference_verify_theorem(6, 9, 8)
    assert verify_theorem(6, 4, 8, **kwargs) == first
    # (4, 7) was computed under a and b: a call naming no checkpoint, or
    # a, takes the cached table and touches no file
    a.unlink()
    assert component_table(4, 7) == component_table(4, 7, checkpoint=str(a)) == table
    assert not a.exists()
    # a call naming any other checkpoint computes the table and writes c
    monkeypatch.setattr(oracle, "_walk", walk)
    assert component_table(4, 7, checkpoint=str(c)) == table
    assert c.read_bytes() == b.read_bytes() != b""


def test_table_cache_survives_caller_mutation():
    first = component_table(4, 5)
    expected = list(first)
    verdict = verify_theorem(4, 3, 5)
    assert expected and verdict.oracle_value > 0
    first.clear()
    assert component_table(4, 5) == expected
    assert verify_theorem(4, 3, 5) == verdict


@pytest.mark.parametrize("d,n_max", [(d, 7) for d in range(3, 9)] + [(6, 8)])
def test_witnesses_follow_the_tie_rule(monkeypatch, d, n_max):
    # settling ties per subtree and then per table picks the graph that one
    # pass over every enumerated graph picks, labels included
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    table = component_table(d, n_max)
    assert {rec.mu: rec.witness for rec in table} == reference_component_witnesses(d, n_max)


def _count_calls(monkeypatch, counts: Counter, fn, key) -> None:
    """Count fn's calls under key(args), in every planarext module that binds fn."""

    def counted(*args):
        counts[key(args)] += 1
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name == "planarext" or name.startswith("planarext."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)


def test_component_table_work_counts(monkeypatch):
    # one canonical search per parent but K1 (for its generators; a root's
    # also gives its form), per marked form and per settled tie; a full
    # matching only for K1, the 99 roots and the 4 final checks, every
    # other graph seeded from its parent's
    from planarext import canon, enumeration, graphs, matching, planarity

    counts: Counter = Counter()
    _count_calls(monkeypatch, counts, canon._canonical_search, lambda args: "search")
    _count_calls(
        monkeypatch, counts, matching._mate_array,
        lambda args: "seeded" if len(args) > 1 and args[1] is not None else "full",
    )
    _count_calls(monkeypatch, counts, enumeration._accepts_new_vertex, lambda args: "accept")
    _count_calls(monkeypatch, counts, planarity._decide, lambda args: "decide")
    _count_calls(monkeypatch, counts, graphs.from_masks, lambda args: "from_masks")
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    component_table(6, 8)
    assert counts["search"] <= 5950
    assert counts["full"] == 1 + 99 + 4
    # one matching per enumerated graph, plus the final checks
    assert counts["full"] + counts["seeded"] == 5018 + 4
    assert (counts["accept"], counts["decide"], counts["from_masks"]) == (56929, 6945, 5018)
