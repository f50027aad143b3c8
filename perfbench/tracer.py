"""Per-layer tracing from outside the package.

The tracer replaces functions of planarext, in every loaded planarext
module namespace that holds them, by wrappers that time each call and
count it. A layer's self time is its spans' wall time minus the time of
the spans they called, so nested layers are not counted twice. Nothing
under src/ is edited; the wrappers live only in the tracing process.

Counting hooks see the call's arguments and result, which gives the
per-order funnel (candidates, accepted, distinct, planar) without any
counter inside the program.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Spans kept in memory: self time per span name and hook counters."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def _wrap(self, span, fn, hook):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # time each step of the generator, not the call that creates it
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    tracer.stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span, frame, perf_counter() - t0)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            tracer.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span, frame, perf_counter() - t0)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _close(self, span: str, frame: list[float], elapsed: float) -> None:
        self.stack.pop()
        self.self_s[span] += elapsed - frame[0]
        if self.stack:
            self.stack[-1][0] += elapsed

    def patch(self, module: str, name: str, span: str, hook=None) -> None:
        """Wrap module.name wherever a planarext namespace binds it."""
        original = getattr(sys.modules.get(module), name, None)
        if original is None:
            self.absent.append(f"{module}.{name}")
            return
        wrapped = self._wrap(span, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "planarext" or mod_name.startswith("planarext."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def patch_method(self, cls, name: str, span: str, hook=None) -> None:
        setattr(cls, name, self._wrap(span, getattr(cls, name), hook))


def _count(key: str):
    def hook(counts, args, kwargs, result):
        counts[key] += 1

    return hook


def _accept_hook(counts, args, kwargs, result):
    n = args[0]
    counts[f"candidates.n{n}"] += 1
    counts[f"accepted.n{n}"] += bool(result)


def _decide_hook(counts, args, kwargs, result):
    n = args[0]
    counts[f"decided.n{n}"] += 1
    counts[f"planar.n{n}"] += bool(result)


def _order_hook(counts, args, kwargs, result):
    # the oracle turns every enumerated graph into a Graph exactly once
    counts[f"graphs.n{args[0]}"] += 1


def _canon_hook(counts, args, kwargs, result):
    counts["canon.calls"] += 1
    colors = args[2] if len(args) > 2 else kwargs.get("colors")
    counts["canon.marked_calls"] += colors is not None


def _g6_encode_hook(counts, args, kwargs, result):
    counts["g6.calls"] += 1
    counts["g6.bytes"] += len(result)


def _g6_decode_hook(counts, args, kwargs, result):
    counts["g6.calls"] += 1
    counts["g6.bytes"] += len(args[0] if args else kwargs["text"])


def _ckpt_save_hook(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["ckpt.writes"] += 1
    for written in (path, path + ".results.json"):
        if os.path.exists(written):
            counts["ckpt.bytes"] += os.path.getsize(written)


def install(level: str) -> Tracer:
    """Wrap the layer boundaries; level is "full" or "oracle".

    "oracle" wraps only the oracle's own functions, so that worker
    processes forked by the pool run unwrapped code.
    """
    tracer = Tracer()
    p = "planarext."
    oracle = [
        ("oracle", "verify_theorem", "oracle", None),
        ("oracle", "component_table", "oracle", None),
        ("oracle", "_merge_sidecar", "oracle", None),
        ("oracle", "combine", "oracle.combine", None),
        ("oracle", "_load_checkpoint", "oracle.ckpt", _count("ckpt.loads")),
        ("oracle", "_save_checkpoint", "oracle.ckpt", _ckpt_save_hook),
    ]
    full = [
        ("oracle", "_subtree_worker", "oracle", _count("oracle.jobs")),
        ("enumeration", "_levels", "enumeration", None),
        ("enumeration", "_children", "enumeration", None),
        ("enumeration", "_accepts_new_vertex", "enumeration.accept", _accept_hook),
        ("canon", "canonical_form_masks", "canon", _canon_hook),
        ("planarity", "_decide", "planarity.decide", _decide_hook),
        ("planarity", "is_planar", "planarity.certify", _count("certify.calls")),
        ("matching", "matching_number", "matching", _count("matching.calls")),
        ("graphs", "from_masks", "graphs", _order_hook),
        ("graphs", "build_graph", "graphs", None),
        ("graphs", "disjoint_union", "graphs", None),
        ("serialize", "graph6_encode", "serialize.g6", _g6_encode_hook),
        ("serialize", "graph6_decode", "serialize.g6", _g6_decode_hook),
        ("serialize", "certificate", "serialize.certificate", None),
        ("constructions", "pivotal_planar", "constructions", None),
        ("constructions", "atlas", "constructions", None),
        ("constructions", "star", "constructions", None),
        ("constructions", "complete", "constructions", None),
        ("constructions", "k_prime", "constructions", None),
        ("bounds", "max_edges_planar", "bounds", _count("bounds.calls")),
    ]
    for module, name, span, hook in oracle + (full if level == "full" else []):
        tracer.patch(p + module, name, span, hook)
    if level == "full":
        from planarext.graphs import Graph

        tracer.patch_method(Graph, "__post_init__", "graphs", _count("graphs.builds"))
    return tracer
