"""Benchmark of planarext's three routes, driven through the public API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each a closed loop: one caller, one operation at a time, each
timed repetition in a fresh interpreter; the seed only permutes the order
of a fixed set of operations):

  verify-d6-n8        verify_theorem(6, nu, 8) for nu = 2..13, serial,
                      starting from an empty component-table cache.
  verify-d6-n8-w2ck   the same grid with workers=2 and a fresh checkpoint,
                      then the same grid resumed from that checkpoint in a
                      new interpreter. The only workload that runs the
                      pool, the sharding and checkpoint I/O.
  construct-check     pivotal_planar -> graph6_encode -> graph6_decode ->
                      certificate for d = 2..10, nu = 2..40 (351 ops):
                      few large sparse graphs instead of many tiny ones.

With --trace 0 the run repeats its workload at least three times, and
then while another repetition of average length fits in --seconds. It
prints the end-to-end metrics: medians over repetitions of wall_s, cpu_s
(own plus child processes) and peak_rss_mb; setup_s, the median of 30
interpreter starts plus `import planarext`; and op_p50_ms and op_tail_ms. On
construct-check an operation is one (d, nu) and the tail is the highest
of the percentiles 99.9, 99, 90, 75, 50 with at least ten samples beyond
it. On the verify workloads an operation is one whole grid (its first
call computes the table, the rest reuse it), so op_p50_ms is wall_s in
ms, and with fewer than twenty grids op_tail_ms is their median too. The
percentile and the sample count are printed on the line before the
result.

Every time is normalised to a reference machine speed (see speed.py):
on a shared machine raw times drift by up to 2x within minutes. The raw
times are printed on the line before the result.

With --trace 1 the run makes one untraced repetition of its workload and
one traced repetition of every route, ignoring --seconds, and prints the
per-layer metrics. Each layer metric is read from the route that
exercises the layer: enumeration, canon, decision planarity, graphs and
the census from verify-d6-n8; oracle.* from verify-d6-n8-w2ck, traced at
the oracle boundary only because pool workers keep their own counters;
certifying planarity, matching, serialize, constructions and bounds from
construct-check. trace.overhead_s is the traced minus the untraced wall
time of the requested workload.

Every output is checked against golden.py; a mismatch or an exception
counts as a failed operation. The last line of standard output is the
JSON result; the line before it records the environment and details.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import golden
from speed import SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")

SETUP_STARTS = 30
MIN_REPS = 3
PARALLEL_WORKERS = 2
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170.0
VERIFY, PARALLEL, CONSTRUCT = "verify-d6-n8", "verify-d6-n8-w2ck", "construct-check"

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
}

PER_LAYER = {
    "enumeration.candidates": "count",
    "enumeration.accepted": "count",
    "enumeration.accept_ratio": "ratio",
    "enumeration.accept_self_s": "s",
    "enumeration.children_self_s": "s",
    "canon.calls": "count",
    "canon.marked_calls": "count",
    "canon.calls_per_graph": "ratio",
    "canon.self_s": "s",
    "planarity.decide_calls": "count",
    "planarity.decide_self_s": "s",
    "planarity.planar_ratio": "ratio",
    "planarity.certify_calls": "count",
    "planarity.certify_self_s": "s",
    "matching.calls": "count",
    "matching.self_s": "s",
    "matching.share_verify": "ratio",
    "matching.share_construct": "ratio",
    "graphs.build_calls": "count",
    "graphs.build_self_s": "s",
    "serialize.g6_calls": "count",
    "serialize.g6_self_s": "s",
    "serialize.g6_bytes": "bytes",
    "serialize.certificate_self_s": "s",
    "constructions.self_s": "s",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "oracle.jobs": "count",
    "oracle.worker_busy_ratio": "ratio",
    "oracle.ckpt_writes": "count",
    "oracle.ckpt_self_s": "s",
    "oracle.ckpt_bytes_written": "bytes",
    "oracle.resume_s": "s",
    "oracle.combine_self_s": "s",
    "cli.import_s": "s",
    **{f"census.n{n}": "count" for n in range(1, 9)},
    "funnel.candidates": "count",
    "funnel.accepted": "count",
    "funnel.distinct": "count",
    "funnel.planar": "count",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run: no result is printed."""


def workloads(toy: bool = False) -> dict[str, dict]:
    """The three workloads; toy=True shrinks them for the self-test."""
    n_max = 7 if toy else 8
    nu_top = 6 if toy else 14
    pinned = golden.VERIFY[(6, n_max)]

    def verify(workers: int, checkpoint: bool) -> dict:
        return {
            "route": "verify",
            "d": 6,
            "n_max": n_max,
            "items": list(range(2, nu_top)),
            "workers": workers,
            "checkpoint": checkpoint,
            "expected": {
                "verdicts": {str(nu): list(pinned["verdicts"][nu]) for nu in range(2, nu_top)},
                "table": [list(row) for row in pinned["table"]],
            },
        }

    construct_nus = range(2, 6 if toy else 41)
    return {
        VERIFY: verify(1, False),
        PARALLEL: verify(PARALLEL_WORKERS, True),
        CONSTRUCT: {
            "route": "construct",
            "items": [[d, nu] for d in range(2, 11) for nu in construct_nus],
            "expected": {"edges": {str(d): list(e) for d, e in golden.CONSTRUCT_EDGES.items()}},
        },
    }


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_child(argv: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    with subprocess.Popen(
        argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{argv[1]} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{argv[1]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def _worker(cfg: dict, order: list, trace: str, checkpoint: str | None, resume: bool) -> dict:
    spec = {
        **{k: v for k, v in cfg.items() if k != "checkpoint"},
        "items": order,
        "checkpoint": checkpoint,
        "resume": resume,
        "trace": trace,
    }
    out = _run_child([sys.executable, WORKER, json.dumps(spec)], WORKER_TIMEOUT_S)
    return json.loads(out.strip().splitlines()[-1])


def repetition(cfg: dict, rng: random.Random, trace: str, work_dir: str) -> dict:
    """One timed repetition; with a checkpoint, a fresh run then a resume."""
    order = rng.sample(cfg["items"], len(cfg["items"]))
    if not cfg.get("checkpoint"):
        part = _worker(cfg, order, trace, None, False)
        return {**part, "parts": [part]}
    ckpt_dir = tempfile.mkdtemp(dir=work_dir)
    try:
        ckpt = os.path.join(ckpt_dir, "verify.ck")
        parts = [_worker(cfg, order, trace, ckpt, resume) for resume in (False, True)]
    finally:
        shutil.rmtree(ckpt_dir)
    return {
        "wall_s": sum(p["wall_s"] for p in parts),
        "raw_wall_s": sum(p["raw_wall_s"] for p in parts),
        "cpu_s": sum(p["cpu_s"] for p in parts),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        "latencies_ms": [x for p in parts for x in p["latencies_ms"]],
        "attempted": sum(p["attempted"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
        "parts": parts,
    }


def setup_times(count: int) -> tuple[list[float], list[float]]:
    """Normalised and raw times of interpreter start plus `import planarext`.

    One untimed start first compiles the bytecode cache. Each timed start
    is scaled by the machine speed probed just before and after it.
    """
    argv = [sys.executable, "-c", "import planarext"]
    _run_child(argv, WORKER_TIMEOUT_S)
    scaled, raw = [], []
    for _ in range(count):
        probe = SpeedProbe()
        probe.bracket()
        t0 = perf_counter()
        _run_child(argv, WORKER_TIMEOUT_S)
        t1 = perf_counter()
        probe.bracket()
        raw.append(t1 - t0)
        scaled.append(probe.normalise(t0, t1))
    return scaled, raw


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile with ten samples beyond.

    With fewer than twenty samples no percentile has ten beyond it, and
    the median stands in: a maximum of a handful of samples is too noisy
    to bound.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def end_to_end(cfg: dict, seed: int, seconds: float, work_dir: str) -> tuple[dict, dict, list]:
    setup, setup_raw = setup_times(SETUP_STARTS)
    rng = random.Random(seed)
    reps = []
    t0 = perf_counter()
    # at least MIN_REPS; more only while one of average length still fits
    while len(reps) < MIN_REPS or (perf_counter() - t0) * (len(reps) + 1) / len(reps) <= seconds:
        reps.append(repetition(cfg, rng, "off", work_dir))
    if cfg["route"] == "verify":
        # an operation is a whole grid: one table computation, then cache hits
        latencies = [r["wall_s"] * 1e3 for r in reps]
    else:
        latencies = [x for r in reps for x in r["latencies_ms"]]
    pct, tail_ms = tail(latencies)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "cpu_s": statistics.median(r["cpu_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "setup_s": statistics.median(setup),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
    }
    details = {
        "repetitions": len(reps),
        "wall_s_each": [r["wall_s"] for r in reps],
        "raw_wall_s_each": [r["raw_wall_s"] for r in reps],
        "speed_factor_each": [p["speed_factor"] for r in reps for p in r["parts"]],
        "setup_s_each": setup,
        "raw_setup_s_each": setup_raw,
        "op_samples": len(latencies),
        "op_tail_percentile": pct,
    }
    return values, details, reps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(v: dict, w: dict, c: dict, n_max: int) -> tuple[dict, dict]:
    """Per-layer values from the traced verify (v), parallel (w) and construct (c) runs."""
    vt, ct = v["parts"][0]["trace"], c["parts"][0]["trace"]
    wf, wr = (p["trace"] for p in w["parts"])
    vs, vc, cs, cc = vt["self_s"], vt["counts"], ct["self_s"], ct["counts"]

    def per_order(prefix: str) -> list[int]:
        return [vc.get(f"{prefix}.n{n}", 0) for n in range(1, 9)]

    census = per_order("graphs")
    candidates, accepted = sum(per_order("candidates")), sum(per_order("accepted"))
    decided, planar = sum(per_order("decided")), sum(per_order("planar"))
    top = f"n{n_max}"
    funnel = [vc.get(f"{k}.{top}", 0) for k in ("candidates", "accepted", "decided", "planar")]
    fresh = w["parts"][0]
    values = {
        "enumeration.candidates": candidates,
        "enumeration.accepted": accepted,
        "enumeration.accept_ratio": _ratio(accepted, candidates),
        "enumeration.accept_self_s": vs.get("enumeration.accept", 0.0),
        "enumeration.children_self_s": vs.get("enumeration", 0.0),
        "canon.calls": vc.get("canon.calls", 0),
        "canon.marked_calls": vc.get("canon.marked_calls", 0),
        "canon.calls_per_graph": _ratio(vc.get("canon.calls", 0), sum(census)),
        "canon.self_s": vs.get("canon", 0.0),
        "planarity.decide_calls": decided,
        "planarity.decide_self_s": vs.get("planarity.decide", 0.0),
        "planarity.planar_ratio": _ratio(planar, decided),
        "planarity.certify_calls": cc.get("certify.calls", 0),
        "planarity.certify_self_s": cs.get("planarity.certify", 0.0),
        "matching.calls": cc.get("matching.calls", 0),
        "matching.self_s": cs.get("matching", 0.0),
        "matching.share_verify": _ratio(vs.get("matching", 0.0), v["wall_s"]),
        "matching.share_construct": _ratio(cs.get("matching", 0.0), c["wall_s"]),
        "graphs.build_calls": vc.get("graphs.builds", 0),
        "graphs.build_self_s": vs.get("graphs", 0.0),
        "serialize.g6_calls": cc.get("g6.calls", 0),
        "serialize.g6_self_s": cs.get("serialize.g6", 0.0),
        "serialize.g6_bytes": cc.get("g6.bytes", 0),
        "serialize.certificate_self_s": cs.get("serialize.certificate", 0.0),
        "constructions.self_s": cs.get("constructions", 0.0),
        "bounds.calls": cc.get("bounds.calls", 0),
        "bounds.self_s": cs.get("bounds", 0.0),
        "oracle.jobs": vc.get("oracle.jobs", 0),
        "oracle.worker_busy_ratio": _ratio(fresh["child_cpu_s"], PARALLEL_WORKERS * fresh["wall_s"]),
        "oracle.ckpt_writes": wf["counts"].get("ckpt.writes", 0),
        "oracle.ckpt_self_s": wf["self_s"].get("oracle.ckpt", 0.0) + wr["self_s"].get("oracle.ckpt", 0.0),
        "oracle.ckpt_bytes_written": wf["counts"].get("ckpt.bytes", 0),
        "oracle.resume_s": w["parts"][1]["wall_s"],
        "oracle.combine_self_s": wf["self_s"].get("oracle.combine", 0.0) + wr["self_s"].get("oracle.combine", 0.0),
        **{f"census.n{n}": census[n - 1] for n in range(1, 9)},
        "funnel.candidates": funnel[0],
        "funnel.accepted": funnel[1],
        "funnel.distinct": funnel[2],
        "funnel.planar": funnel[3],
    }
    # the census and, at n_max = 8, the funnel are checked outputs too
    checks = {"attempted": 1 + (n_max == 8), "failures": []}
    failures = checks["failures"]
    if census[:n_max] != golden.CENSUS_D6[:n_max]:
        failures.append(f"census: got {census[:n_max]}, want {golden.CENSUS_D6[:n_max]}")
    if n_max == 8 and funnel != golden.FUNNEL_D6_N8:
        failures.append(f"funnel n=8: got {funnel}, want {golden.FUNNEL_D6_N8}")
    return values, checks


def _summed_self_s(rep: dict) -> dict[str, float]:
    total: dict[str, float] = {}
    for part in rep["parts"]:
        for span, secs in part["trace"]["self_s"].items():
            total[span] = total.get(span, 0.0) + secs
    return total


def traced(name: str, wl: dict, seed: int, work_dir: str) -> tuple[dict, dict, list]:
    rng = random.Random(seed)
    untraced = repetition(wl[name], rng, "off", work_dir)
    runs = {
        VERIFY: repetition(wl[VERIFY], rng, "full", work_dir),
        PARALLEL: repetition(wl[PARALLEL], rng, "oracle", work_dir),
        CONSTRUCT: repetition(wl[CONSTRUCT], rng, "full", work_dir),
    }
    values, checks = layer_metrics(runs[VERIFY], runs[PARALLEL], runs[CONSTRUCT], wl[VERIFY]["n_max"])
    traced_wall = runs[name]["wall_s"]
    values.update({
        "cli.import_s": statistics.median(p["import_s"] for p in untraced["parts"]),
        "trace.untraced_wall_s": untraced["wall_s"],
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced["wall_s"],
        "trace.overhead_ratio": _ratio(traced_wall - untraced["wall_s"], untraced["wall_s"]),
    })
    details = {
        "self_s_by_route": {route: _summed_self_s(r) for route, r in runs.items()},
        "traced_wall_s_by_route": {route: r["wall_s"] for route, r in runs.items()},
        "absent": sorted({a for r in runs.values() for p in r["parts"] for a in p["trace"]["absent"]}),
    }
    return values, details, [untraced, *runs.values(), checks]


def git_sha() -> str | None:
    """The commit of the checkout, read from .git when there is one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = os.path.join(ROOT, ".git", *ref[5:].split("/"))
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref[5:]):
                    return line.split()[0]
    except OSError:
        pass
    return None


def measure(name: str, wl: dict, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(details line, result line) for one run of one workload."""
    if not os.path.isfile(os.path.join(SRC, "planarext", "__init__.py")):
        raise BenchError(f"no planarext sources under {SRC}")
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "start_method": multiprocessing.get_start_method(),
        "git_sha": git_sha(),
        "loadavg_start": os.getloadavg(),
    }
    os.makedirs(WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        if trace:
            values, details, reps = traced(name, wl, seed, work_dir)
            units = PER_LAYER
        else:
            values, details, reps = end_to_end(wl[name], seed, seconds, work_dir)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir)
        if not os.listdir(WORK_DIR):
            os.rmdir(WORK_DIR)
    env["loadavg_end"] = os.getloadavg()
    attempted = sum(r["attempted"] for r in reps)
    failures = [f for r in reps for f in r["failures"]]
    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "env": env,
        "fail_ratio": _ratio(len(failures), attempted),
        "failures": failures[:20],
        **details,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(VERIFY, PARALLEL, CONSTRUCT))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        info, result = measure(args.workload, workloads(), args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
