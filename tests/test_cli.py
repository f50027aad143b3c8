from __future__ import annotations

import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import planarext
from planarext import (
    atlas,
    constructions,
    graph6_decode,
    graph6_encode,
    max_edges_planar,
    oracle,
)
from planarext.cli import main
from planarext.oracle import FalsificationError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_command(capsys):
    code, out, _ = run(capsys, "bound", "6", "8")
    assert code == 0 and out.strip() == "37"
    code, out, _ = run(capsys, "bound", "2", "2")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "bound", "5", "4", "--class", "general")
    assert code == 0 and out.strip() == "14"
    code, out, _ = run(capsys, "bound", "5", "4", "--class", "outerplanar")
    assert code == 0 and out.strip() == "12"


def test_construct_formats(capsys):
    code, out, _ = run(capsys, "construct", "5", "3")
    assert code == 0
    g = graph6_decode(out.strip())
    assert g.m == max_edges_planar(5, 3) == 9

    code, out, _ = run(capsys, "construct", "5", "3", "--format", "json")
    payload = json.loads(out)
    assert payload["edge_count"] == 9
    assert payload["class"] == "planar"
    assert graph6_decode(payload["graph_g6"]).m == 9

    code, out, _ = run(capsys, "construct", "3", "3", "--format", "dot")
    assert code == 0
    assert out.count("--") == 6  # two triangles

    code, out, _ = run(capsys, "construct", "7", "4", "--class", "general")
    assert code == 0
    assert graph6_decode(out.strip()).m == 21


def test_check_command(capsys):
    a5 = graph6_encode(atlas("A5"))
    code, out, _ = run(capsys, "check", a5, "--d", "6", "--nu", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["tight"] is True
    assert payload["params"] == {"d": 6, "nu": 6}

    a6 = graph6_encode(atlas("A6"))
    code, out, _ = run(capsys, "check", a6, "--d", "6", "--nu", "7")
    assert json.loads(out)["tight"] is True

    code, out, _ = run(capsys, "check", a5, "--d", "5", "--nu", "6")
    assert code == 0
    assert json.loads(out)["tight"] is False  # max degree 5 breaks membership


def test_table_command(capsys):
    code, out, _ = run(capsys, "table", "--d", "4", "--n-max", "7")
    assert code == 0
    rows = json.loads(out)
    assert [(r["mu"], r["best_edges"]) for r in rows] == [(1, 3), (2, 7), (3, 10)]
    assert all(r["exhaustive"] for r in rows)
    assert graph6_decode(rows[1]["witness_g6"]).m == 7


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--d", "5", "--nu", "5", "--n-max", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "confirmed"
    assert payload["oracle_value"] == payload["formula_value"] == 18
    assert payload["n_max"] == 7


def test_verify_parallel_byte_identical(capsys):
    code, serial, _ = run(capsys, "verify", "--d", "3", "--nu", "6", "--n-max", "5")
    assert code == 0
    code, parallel, _ = run(
        capsys, "verify", "--d", "3", "--nu", "6", "--n-max", "5", "--workers", "2"
    )
    assert code == 0
    assert serial == parallel


def test_verify_falsification_exit_code(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise FalsificationError(5, 3, 99, 9)

    monkeypatch.setattr("planarext.oracle.verify_theorem", explode)
    code, out, err = run(capsys, "verify", "--d", "5", "--nu", "3", "--n-max", "7")
    assert code == 2
    assert "FALSIFIED" in err
    assert out == ""


def test_color_command(capsys):
    code, out, _ = run(capsys, "color", graph6_encode(atlas("K5_MINUS")))
    assert code == 0
    payload = json.loads(out)
    assert payload["palette_size"] <= 5
    assert len(payload["edges"]) == 9
    seen_at: dict[int, set[int]] = {}
    for row in payload["edges"]:
        for end in (row["u"], row["v"]):
            assert row["color"] not in seen_at.setdefault(end, set())
            seen_at[end].add(row["color"])


@pytest.mark.parametrize("command", [["check", "--d", "6", "--nu", "6"], ["color"]])
def test_dash_reads_graph6_from_stdin(monkeypatch, capsys, command):
    # "-" is never graph6, so it names standard input; the output is the
    # argument form's, byte for byte, and a trailing newline is allowed
    a5 = graph6_encode(atlas("A5"))
    name, *options = command
    code, expected, _ = run(capsys, name, a5, *options)
    assert code == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(a5 + "\n"))
    assert run(capsys, name, "-", *options) == (0, expected, "")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert run(capsys, name, "-", *options) == (1, "", "planarext: error: empty graph6 string\n")


def test_construct_piped_into_check_beyond_the_argument_limit():
    # 383,244 bytes of graph6: more than Linux takes as one argument word
    src = str(Path(planarext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    cli_cmd = [sys.executable, "-m", "planarext.cli"]
    g6 = subprocess.run(
        cli_cmd + ["construct", "6", "1000"], env=env, capture_output=True, check=True, timeout=60
    ).stdout
    assert len(g6.strip()) == 383244 > 131072
    proc = subprocess.run(
        cli_cmd + ["check", "-", "--d", "6", "--nu", "1000"],
        env=env, input=g6, capture_output=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["tight"] is True


def test_realize_command(capsys):
    code, out, _ = run(capsys, "realize", "4^7")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "exhausted"
    assert payload["graph_g6"] is None
    assert payload["degrees"] == [4] * 7

    code, out, _ = run(capsys, "realize", "2", "2", "2")
    payload = json.loads(out)
    assert payload["status"] == "found"
    assert graph6_decode(payload["graph_g6"]).m == 3

    code, out, _ = run(capsys, "realize", "5^10", "4", "--timeout", "0")
    payload = json.loads(out)
    assert payload["status"] == "timed-out"
    assert payload["degrees"] == [5] * 10 + [4]


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bogus"])
    assert info.value.code == 1
    with pytest.raises(SystemExit) as info:
        main(["bound", "6"])
    assert info.value.code == 1
    assert main(["check", "notgraph6!!", "--d", "5", "--nu", "3"]) == 1
    assert main(["realize", "4^x"]) == 1
    capsys.readouterr()
    for argv in (
        ["verify", "--d", "6", "--nu", "3", "--n-max", "0"],
        ["verify", "--d", "6", "--nu", "0", "--n-max", "8"],
        ["verify", "--d", "6", "--nu", "-3", "--n-max", "8"],
        ["table", "--d", "4", "--n-max", "-3"],
        ["verify", "--d", "3", "--nu", "6", "--n-max", "5", "--workers", "0"],
        ["table", "--d", "6", "--n-max", "11"],
        ["verify", "--d", "6", "--nu", "4", "--n-max", "11", "--workers", "2"],
        ["realize", "4^6", "--timeout", "nan"],
        ["construct", "6", "0"],
        ["construct", "0", "5"],
        ["bound", "6", "0"],
        ["bound", "6", "-3"],
        ["bound", "0", "5"],
        ["bound", "0", "5", "--class", "outerplanar"],
        ["check", "?", "--d", "6", "--nu", "0"],
        ["check", "?", "--d", "0", "--nu", "5"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("planarext: error: ") and err.count("\n") == 1
    for argv, message in (
        (["realize", "3", "3", "3"], "degree sum must be even"),
        (["realize", "4^-1"], "bad repeat count in '4^-1'"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (1, "", f"planarext: error: {message}\n")


def test_realize_refuses_more_degrees_than_graph6_prints(monkeypatch, capsys):
    def no_search(*args, **kwargs):
        raise AssertionError("the search started")

    monkeypatch.setattr("planarext.realize.realize_degree_sequence_planar", no_search)
    # the last one would not fit in memory if it were expanded
    for argv, total in (
        (["realize", "5^300000"], "300000"),
        (["realize", "5^258047", "4"], "258048"),
        (["realize", "5^" + "9" * 30], "9" * 30),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == f"planarext: error: at most 258047 degrees, got {total}\n"


def test_construct_refuses_more_vertices_than_graph6_prints(monkeypatch, capsys):
    # the builders refuse; a construction that fits goes on to the union
    def no_union(*args, **kwargs):
        raise ValueError("the construction was built")

    monkeypatch.setattr(constructions, "disjoint_union", no_union)
    for argv, order in (
        (["construct", "6", "100000000"], "214285716"),
        (["construct", "2", "200000"], "399998"),
        (["construct", "2", "129025"], "258048"),
        (["construct", "3", "86017", "--class", "general"], "258048"),
        (["construct", "6", "100000000", "--class", "general"], "233333331"),
    ):
        for fmt in ("g6", "dot", "json"):
            code, out, err = run(capsys, *argv, "--format", fmt)
            assert code == 1 and out == ""
            assert err == (
                f"planarext: error: at most 258047 vertices, the construction has {order}\n"
            )
    # one pair fewer fits, and goes on to the union
    code, out, err = run(capsys, "construct", "2", "129024")
    assert err == "planarext: error: the construction was built\n"


def test_checkpoint_of_a_run_without_subtree_roots_is_never_opened(tmp_path, monkeypatch, capsys):
    # n_max <= 6 enumerates every order in one pass, with no roots to journal
    argv = ["verify", "--d", "6", "--nu", "4", "--n-max", "6", "--checkpoint"]
    fresh = tmp_path / "fresh.ck"
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    code, out, err = run(capsys, *argv, str(fresh))
    assert (code, err) == (0, "") and json.loads(out)["status"] == "confirmed"
    assert not fresh.exists()
    junk = tmp_path / "junk.ck"
    junk.write_bytes(b"not a journal\n")
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    assert run(capsys, *argv, str(junk)) == (0, out, "")
    assert list(tmp_path.iterdir()) == [junk]
    assert junk.read_bytes() == b"not a journal\n"


def test_empty_checkpoint_path_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["verify", "--d", "5", "--nu", "3", "--n-max", "7", "--checkpoint", ""]
    err = "planarext: error: checkpoint path must not be empty\n"
    assert run(capsys, *argv) == (1, "", err)
    assert list(tmp_path.iterdir()) == []


def _resume_after_edit(tmp_path, monkeypatch, capsys, edit):
    # write a d = 4 checkpoint, let edit() change its journal lines, resume
    path = tmp_path / "check.txt"
    argv = ["verify", "--d", "4", "--nu", "3", "--n-max", "7", "--checkpoint", str(path)]
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    code, _, _ = run(capsys, *argv)
    assert code == 0
    lines = edit(path.read_text().splitlines())
    path.write_text("".join(line + "\n" for line in lines))
    monkeypatch.setattr(oracle, "_TABLE_CACHE", {})
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("planarext: error: ") and err.count("\n") == 1
    return err


def _with_records(change, mu="2"):
    # change() edits the records of the first finished root that has this mu
    def edit(lines):
        entries = [json.loads(line) for line in lines[1:]]
        change(next(records for _root, records in entries if mu in records))
        return lines[:1] + [json.dumps(entry) for entry in entries]

    return edit


def _with_record(key, record):
    return _with_records(lambda records: records.__setitem__(key, record))


def _moved(records):
    records["8"] = records.pop("3")


def test_checkpoint_record_under_wrong_mu_exits_one(tmp_path, monkeypatch, capsys):
    err = _resume_after_edit(tmp_path, monkeypatch, capsys, _with_records(_moved, mu="3"))
    assert err == "planarext: error: checkpoint record for mu=8 does not match its witness\n"


def _with_line(index, reshape):
    def edit(lines):
        root, records = json.loads(lines[index])
        return lines[:index] + [json.dumps(reshape(root, records))] + lines[index + 1 :]

    return edit


@pytest.mark.parametrize(
    "edit,message",
    [
        (_with_record("3", 5), "checkpoint record for mu='3' is not an [edges, graph6] pair"),
        (_with_record("2", [7]), "checkpoint record for mu='2' is not an [edges, graph6] pair"),
        (_with_record("2", ["7", "Drw"]), "is not an [edges, graph6] pair"),
        (_with_record("x", [7, "Drw"]), "checkpoint record for mu='x' is not an"),
        (_with_record("0", [0, "@"]), "checkpoint record for mu=0 does not match its witness"),
        (_with_line(1, lambda root, recs: {root: recs}), "line 2 does not map roots to records"),
        (_with_line(3, lambda root, recs: [[root, recs]]), "line 4 does not map roots to records"),
        (_with_line(2, lambda root, recs: [root, [recs]]), "line 3 does not map roots to records"),
        (lambda lines: lines[:2] + ["not json"] + lines[2:], "line 3 does not map roots"),
        (lambda lines: lines + ["[" * 10**5 + "]" * 10**5], "does not map roots to records"),
    ],
    ids=[
        "int", "short", "str-edges", "bad-key", "mu-zero", "roots-list", "data-list",
        "root-list", "not-json", "deep-json",
    ],
)
def test_checkpoint_malformed_record_exits_one(tmp_path, monkeypatch, capsys, edit, message):
    assert message in _resume_after_edit(tmp_path, monkeypatch, capsys, edit)


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda lines: lines + ['["ffffff", {}]'], "'ffffff' is not a root of this run"),
        (lambda lines: lines + lines[3:4], "appears twice"),
        (
            lambda lines: ['{"d":4,"format":1,"n_max":8}'] + lines[1:],
            'is not a journal for d=4, n_max=7: its first line is not {"d":4,"format":1,"n_max":7}',
        ),
        (lambda lines: ['{"d":4,"format":2,"n_max":7}'] + lines[1:], "is not a journal for d=4"),
    ],
    ids=["foreign-root", "duplicate-root", "other-run", "other-format"],
)
def test_checkpoint_journal_of_another_run_exits_one(tmp_path, monkeypatch, capsys, edit, message):
    assert message in _resume_after_edit(tmp_path, monkeypatch, capsys, edit)


def test_checkpoint_leftover_two_file_layout_exits_one(tmp_path, monkeypatch, capsys):
    # the done-list plus sidecar that older versions wrote are not resumed
    def two_files(lines):
        entries = [json.loads(line) for line in lines[1:]]
        sidecar = {"d": 4, "n_max": 7, "roots": dict(entries)}
        (tmp_path / "check.txt.results.json").write_text(json.dumps(sidecar))
        return sorted(root for root, _records in entries)

    err = _resume_after_edit(tmp_path, monkeypatch, capsys, two_files)
    assert "is not a journal for d=4, n_max=7" in err


@pytest.mark.parametrize(
    "g6",
    [
        "D~{",  # K5: max degree 4, not below d = 4, and non-planar
        "EFz_",  # K3,3: max degree 3 but non-planar
        "CK",  # two disjoint edges: disconnected
    ],
    ids=["K5", "K33", "2K2"],
)
def test_checkpoint_witness_outside_the_class_exits_one(tmp_path, monkeypatch, capsys, g6):
    g = graph6_decode(g6)
    err = _resume_after_edit(tmp_path, monkeypatch, capsys, _with_record("2", [g.m, g6]))
    assert err == (
        "planarext: error: checkpoint witness for mu=2 is not a connected planar "
        "graph with max degree below 4\n"
    )


def test_entry_point_help(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    for sub in ("bound", "construct", "check", "table", "verify", "color", "realize"):
        assert sub in out


def test_closed_pipe_exits_one_without_a_message():
    # about 3 MB of graph6: the reader takes a few bytes and leaves
    src = str(Path(planarext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "planarext.cli", "construct", "2", "3001"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(5) == b"~@\\o`"
    proc.stdout.close()
    try:
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, stderr) == (1, b"")


def test_out_of_memory_exits_one_with_one_line():
    # 258,046 vertices, about 5.5 GB of graph6, in 1 GiB of address space
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(planarext.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "planarext.cli", "construct", "2", "129024"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, timeout=300,
        preexec_fn=cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr.decode().splitlines() == ["planarext: error: out of memory"]


# run one command in a fresh interpreter; print its exit code and the modules it loaded
_FOOTPRINT = """
import contextlib, io, sys
from planarext import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m.startswith("planarext")))
"""


def _footprint(*argv: str) -> tuple[int, set[str]]:
    src = str(Path(planarext.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *argv],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    code, *loaded = proc.stdout.split()
    return int(code), set(loaded)


def test_bound_loads_the_bounds_alone():
    assert _footprint("bound", "6", "8") == (0, {"planarext", "planarext.cli", "planarext.bounds"})


@pytest.mark.parametrize(
    "argv",
    [
        ("construct", "6", "8"),
        ("construct", "3", "5", "--class", "general", "--format", "dot"),
        ("check", "D]w", "--d", "4", "--nu", "3"),
        ("color", "D]w"),
        ("realize", "3^4"),
    ],
)
def test_commands_off_the_verify_route_load_no_enumeration(argv):
    code, loaded = _footprint(*argv)
    assert code == 0 and "planarext.serialize" in loaded
    assert not loaded & {"planarext.oracle", "planarext.enumeration", "planarext.canon"}


@pytest.mark.parametrize(
    "argv", [("table", "--d", "4", "--n-max", "5"), ("verify", "--d", "4", "--nu", "3", "--n-max", "5")]
)
def test_verify_route_loads_neither_coloring_nor_realize(argv):
    code, loaded = _footprint(*argv)
    assert code == 0 and "planarext.oracle" in loaded
    assert not loaded & {"planarext.coloring", "planarext.realize"}
