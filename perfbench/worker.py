"""One timed repetition of one route, in a fresh interpreter.

run.py starts this script once per repetition with a JSON spec as its
only argument and PYTHONPATH pointing at the checkout's src/. It drives
only the public entry points of planarext, checks every output against
the expected values carried in the spec, and prints one JSON object.

Routes:
  verify     verify_theorem(d, nu, n_max) for each nu in the given order,
             then the component table (a cache hit, untimed) against the
             pinned rows and witnesses.
  construct  pivotal_planar -> graph6_encode -> graph6_decode ->
             certificate for each (d, nu) in the given order.
"""

from __future__ import annotations

import json
import os
import resource
import sys
from time import perf_counter

from speed import SpeedProbe


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _check_cold_state(spec: dict, oracle) -> None:
    """Refuse to time a warm cache, a stale checkpoint or a missing one."""
    if getattr(oracle, "_TABLE_CACHE", None):
        raise SystemExit("worker: component table cache is not empty before timing")
    ckpt = spec.get("checkpoint")
    if ckpt is None:
        return
    leftovers = os.listdir(os.path.dirname(ckpt))
    if spec["resume"]:
        if not os.path.isfile(ckpt) or os.path.getsize(ckpt) == 0:
            raise SystemExit(f"worker: no completed checkpoint to resume at {ckpt}")
    elif leftovers:
        raise SystemExit(f"worker: checkpoint directory is not fresh: {leftovers}")


def _verify(spec: dict, api: dict, failures: list[str]) -> list[tuple[float, float]]:
    """No per-call spans: one grid is one operation, timed by the caller."""
    d, n_max = spec["d"], spec["n_max"]
    kwargs = {"workers": spec["workers"], "checkpoint": spec["checkpoint"]}
    expected = spec["expected"]
    for nu in spec["items"]:
        try:
            verdict = api["verify_theorem"](d, nu, n_max, **kwargs)
        except Exception as exc:  # FalsificationError included: counted, not fatal
            failures.append(f"verify nu={nu}: {type(exc).__name__}: {exc}")
            continue
        got = [verdict.status, verdict.oracle_value, verdict.formula_value]
        if got != expected["verdicts"][str(nu)]:
            failures.append(f"verify nu={nu}: got {got}, want {expected['verdicts'][str(nu)]}")
    return []


def _check_table(spec: dict, api: dict, failures: list[str]) -> None:
    try:
        table = api["component_table"](
            spec["d"], spec["n_max"], workers=spec["workers"], checkpoint=spec["checkpoint"]
        )
        got = [
            [r.mu, r.best_edges, r.exhaustive, api["graph6_encode"](r.witness)]
            for r in table
        ]
    except Exception as exc:
        failures.append(f"component_table: {type(exc).__name__}: {exc}")
        return
    if got != spec["expected"]["table"]:
        failures.append(f"component_table: got {got}, want {spec['expected']['table']}")


def _construct(spec: dict, api: dict, failures: list[str]) -> list[tuple[float, float]]:
    """The (start, end) perf_counter() readings of every operation."""
    edges = spec["expected"]["edges"]
    spans = []
    for d, nu in spec["items"]:
        t0 = perf_counter()
        try:
            g = api["pivotal_planar"](d, nu)
            text = api["graph6_encode"](g)
            back = api["graph6_decode"](text)
            cert = api["certificate"](g, d, nu)
        except Exception as exc:
            spans.append((t0, perf_counter()))
            failures.append(f"construct d={d} nu={nu}: {type(exc).__name__}: {exc}")
            continue
        spans.append((t0, perf_counter()))
        want_m = edges[str(d)][nu - 2]
        if not cert.tight or back.adj != g.adj or g.m != want_m:
            failures.append(
                f"construct d={d} nu={nu}: tight={cert.tight} "
                f"round_trip={back.adj == g.adj} m={g.m} want {want_m}"
            )
    return spans


def main() -> None:
    spec = json.loads(sys.argv[1])
    t0 = perf_counter()
    import planarext
    import planarext.oracle

    import_s = perf_counter() - t0
    _check_cold_state(spec, planarext.oracle)
    check_api = {
        name: getattr(planarext, name)
        for name in ("component_table", "graph6_encode")
    }
    tracer = None
    if spec["trace"] != "off":
        import tracer as tracing

        tracer = tracing.install(spec["trace"])
    # looked up after tracing is installed, so the timed calls are wrapped
    api = {
        name: getattr(planarext, name)
        for name in (
            "verify_theorem", "pivotal_planar", "graph6_encode",
            "graph6_decode", "certificate",
        )
    }
    failures: list[str] = []
    route = _verify if spec["route"] == "verify" else _construct
    with SpeedProbe() as probe:
        kids0 = os.times()
        cpu0, wall0 = _cpu_s(), perf_counter()
        spans = route(spec, api, failures)
        wall1, cpu1, kids1 = perf_counter(), _cpu_s(), os.times()
    child_cpu = (kids1.children_user + kids1.children_system) - (
        kids0.children_user + kids0.children_system
    )
    if spec["route"] == "verify":
        _check_table(spec, check_api, failures)
    # the probe's slices ran in this process: raw times leave them out too
    raw_wall = wall1 - wall0 - probe.spent
    wall = probe.normalise(wall0, wall1)
    k = wall / raw_wall  # this repetition's speed factor, for the other times
    out = {
        "speed_factor": k,
        "raw_wall_s": raw_wall,
        "wall_s": wall,
        "cpu_s": (cpu1 - cpu0 - probe.spent) * k,
        "child_cpu_s": child_cpu * k,
        "peak_rss_mb": _peak_rss_mb(),
        "import_s": import_s * k,
        "latencies_ms": [probe.normalise(a, b) * 1e3 for a, b in spans],
        # the verify route also checks the table once
        "attempted": len(spec["items"]) + (spec["route"] == "verify"),
        "failures": failures,
    }
    if tracer is not None:
        out["trace"] = {
            "self_s": {span: t * k for span, t in tracer.self_s.items()},
            "counts": dict(tracer.counts),
            "absent": tracer.absent,
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
