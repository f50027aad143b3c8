"""Desk-scale verification of the planar bound, formula-free.

The oracle enumerates all connected planar graphs with Δ < d up to n_max
vertices, keeps the best edge count per matching number mu, and
recombines records by an unbounded knapsack over the matching budget
nu-1 (matching numbers add over disjoint unions). The knapsack value is
a realizable lower bound; the verdict is

- confirmed: the value meets the closed form AND every matching number
  that could contribute is either exhaustively enumerated (2 mu + 1 <=
  n_max) or provably dominated: a component with nu = mu that is not a
  (d-1)-star lives on exactly 2 mu + 1 vertices, so its edges are capped
  by min(3(2mu+1)-6, floor((d-1)(2mu+1)/2)), and when exhaustive records
  already recombine to at least that cap within the same budget, larger
  components cannot help;
- realizable-only: the value meets the closed form but some contributing
  matching number is neither enumerated nor dominated;
- inconclusive: the value falls short of the closed form.

A knapsack value exceeding the closed form would disprove it and raises
FalsificationError rather than returning a verdict.

Each mu keeps one witness, by the tie rule: most edges, then fewest
vertices, then the smallest canonical form. Only the graphs tied on
edges and vertices are kept, and their forms are compared once the ties
are final: once per subtree, then once for the table. Every graph comes
with its mu. The table's head and each subtree fold one depth-first
walk of the generation tree, which seeds every graph's maximum matching
from its parent's, so one search from the new vertex settles it; only
K1 and each subtree root get the full matching. Subtree and journal
records arrive under their mu. The final re-check of each record, and
the journal loader, still run the full matching.

Subtrees of the generation tree are independent, so roots at a fixed
order are sharded across workers and merged by the same tie rule, making
output independent of scheduling. A checkpoint is an append-only
journal: a header line naming (d, n_max), then one line per finished
root (its hex canonical form and its per-mu records), in job order, so
that a rerun resumes where the last one stopped and any worker count
writes the same bytes. Records stay Graphs from subtree to table: the
journal loader alone reads and checks graph6.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Iterable

from .bounds import max_edges_planar
from .canon import _canonical_search, canonical_form
from .constructions import star
from .enumeration import _check_budget, _walk
from .graphs import Graph, bits, from_masks, is_connected, max_degree
from .matching import _mate_array, matching_number
from .planarity import is_planar
from .serialize import _G6_MAX_ORDER, graph6_decode, graph6_encode

_SHARD_ORDER = 6


@dataclass(frozen=True)
class ComponentRecord:
    """Best known connected component for one matching number."""

    mu: int
    best_edges: int
    witness: Graph
    exhaustive: bool


@dataclass(frozen=True)
class Verdict:
    status: str  # "confirmed" | "realizable-only" | "inconclusive"
    oracle_value: int
    formula_value: int


class FalsificationError(RuntimeError):
    """The oracle built a class member with more edges than the formula allows."""

    def __init__(self, d: int, nu: int, oracle_value: int, formula_value: int):
        super().__init__(
            f"oracle found {oracle_value} edges for (d={d}, nu={nu}) "
            f"but the formula gives {formula_value}"
        )
        self.d = d
        self.nu = nu
        self.oracle_value = oracle_value
        self.formula_value = formula_value


_Best = dict[int, list[Graph]]  # mu -> the graphs tied for most edges, then fewest vertices


def _offer(best: _Best, g: Graph, mu: int) -> None:
    """File g, whose matching number is mu, among the ties for mu, unless mu < 1.

    The tie rule is most edges, then fewest vertices, then the smallest
    canonical form. Only the first two are compared here. The first byte
    of a form is the order, so they drop no graph that the form would
    pick; _settle compares the forms of the graphs still tied at the end.
    """
    if mu < 1:
        return
    ties = best.get(mu)
    if ties is None or (g.m, -g.n) > (ties[0].m, -ties[0].n):
        best[mu] = [g]
    elif (g.m, g.n) == (ties[0].m, ties[0].n):
        ties.append(g)


def _settle(best: _Best) -> dict[int, Graph]:
    """The witness per mu: the one tied graph, or the one with the smallest form."""
    return {
        mu: ties[0] if len(ties) == 1 else min(ties, key=canonical_form)
        for mu, ties in best.items()
    }


def _fold(best: _Best, walk: Iterable[tuple[int, ...]]) -> None:
    """File every graph of walk in best, under its matching number.

    walk is pre-order, so a graph's parent is the last graph walked with
    one vertex fewer, and the parent's maximum matching seeds the graph's.
    The first graph walked has no parent there and gets the full matching.
    """
    mates: dict[int, list[int]] = {}
    for masks in walk:
        n = len(masks)
        g = from_masks(n, masks)
        match = mates[n] = _mate_array(g, mates.get(n - 1))
        _offer(best, g, (n - match.count(-1)) // 2)


def _subtree_worker(
    args: tuple[tuple[int, ...], int, int, list[list[int]]],
) -> dict[int, Graph]:
    """Best witness per mu over one generation subtree (root included).

    args are the root's masks, n_max, deg_max and the generators of
    Aut(root) from the search that gave the root its form. The subtree is
    one fold over the walk from the root: the root gets the full
    matching, every graph below it one seeded by its parent's.
    """
    root, n_max, deg_max, gens = args
    best: _Best = {}
    _fold(best, _walk(root, gens, n_max, deg_max))
    return _settle(best)


def _class_fault(g: Graph, d: int) -> str | None:
    """The first way g fails to be a connected planar graph with Δ < d, or None."""
    if not is_connected(g):
        return "not connected"
    if not max_degree(g) < d:
        return f"max degree not below {d}"
    return None if is_planar(g).verdict else "not planar"


def _journal_line(value: object) -> bytes:
    """One journal line: compact JSON with sorted keys, newline-terminated."""
    text = json.dumps(value, separators=(",", ":"), sort_keys=True)
    return (text + "\n").encode("ascii")


def _journal_header(d: int, n_max: int) -> bytes:
    return _journal_line({"format": 1, "d": d, "n_max": n_max})


def _load_checkpoint(
    path: str, d: int, n_max: int, roots: dict[str, tuple[int, ...]]
) -> dict[str, dict[int, Graph]]:
    """The finished roots in the journal at path, in the order they were written.

    Journal records are read and checked here alone: an [edges, graph6]
    pair under a decimal key mu >= 1, whose witness is a connected planar
    graph with Δ < d, matching number mu and that many edges. roots maps
    each root's name to its masks: a root lies in its own subtree, so its
    line needs a record at mu(root) with at least m(root) edges, and no
    record with fewer than n(root) or more than n_max vertices. Anything
    else that this run did not write raises ValueError before the file
    is touched; only then is a torn last line (no newline) cut off, so
    that its root is recomputed.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}
    header = _journal_header(d, n_max)
    # the journal starts with the header line, or is a torn piece of it
    if not header.startswith(data[: len(header)]):
        raise ValueError(
            f"checkpoint {path} is not a journal for d={d}, n_max={n_max}: "
            f"its first line is not {header.decode().rstrip()}"
        )
    end = data.rfind(b"\n") + 1
    lines = data[len(header) : end].split(b"\n")[:-1]
    done: dict[str, dict[int, Graph]] = {}
    for number, line in enumerate(lines, start=2):
        try:
            entry = json.loads(line)
        except (ValueError, RecursionError):  # not JSON, or nested too deep
            entry = None
        if not (
            isinstance(entry, list)
            and len(entry) == 2
            and isinstance(entry[0], str)
            and isinstance(entry[1], dict)
        ):
            raise ValueError(f"checkpoint {path} line {number} does not map roots to records")
        root, payload = entry
        if root not in roots:
            raise ValueError(
                f"checkpoint {path} line {number}: {root!r} is not a root of this run"
            )
        if root in done:
            raise ValueError(f"checkpoint {path} line {number}: root {root} appears twice")
        records = done[root] = {}
        for mu_text, record in payload.items():
            if not (
                mu_text.isascii()
                and mu_text.isdigit()
                and isinstance(record, list)
                and len(record) == 2
                and type(record[0]) is int
                and isinstance(record[1], str)
            ):
                raise ValueError(
                    f"checkpoint record for mu={mu_text!r} is not an [edges, graph6] pair"
                )
            edges, g6 = record
            g = graph6_decode(g6)
            if _class_fault(g, d):
                raise ValueError(
                    f"checkpoint witness for mu={mu_text} is not a connected planar "
                    f"graph with max degree below {d}"
                )
            mu = int(mu_text)
            if mu < 1 or matching_number(g) != mu or g.m != edges:
                raise ValueError(
                    f"checkpoint record for mu={mu_text} does not match its witness"
                )
            records[mu] = g
        masks = roots[root]
        g = Graph(len(masks), tuple(map(bits, masks)))  # from_masks is left to enumerated graphs
        mu = matching_number(g)
        if mu not in records or records[mu].m < g.m:
            raise ValueError(
                f"checkpoint {path} line {number}: root {root} has no record "
                f"at mu={mu} with at least its {g.m} edges"
            )
        if not all(g.n <= h.n <= n_max for h in records.values()):
            raise ValueError(
                f"checkpoint {path} line {number}: root {root} has a record with "
                f"fewer than its {g.n} or more than {n_max} vertices"
            )
    if end < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(end)
    return done


def _save_checkpoint(
    path: str, d: int, n_max: int, root: str, records: dict[int, Graph]
) -> None:
    """Append one finished root's witnesses to the journal at path, then fsync.

    A new or empty journal gets its header line first. Nothing written is
    ever rewritten.
    """
    payload = {str(mu): [g.m, graph6_encode(g)] for mu, g in records.items()}
    with open(path, "ab") as fh:
        if fh.tell() == 0:
            fh.write(_journal_header(d, n_max))
        fh.write(_journal_line([root, payload]))
        fh.flush()
        os.fsync(fh.fileno())


_TABLE_CACHE: dict[tuple[int, int, str | None], tuple[ComponentRecord, ...]] = {}


def component_table(
    d: int, n_max: int, *, workers: int = 1, checkpoint: str | None = None
) -> list[ComponentRecord]:
    """Best connected planar component with Δ < d per matching number.

    The head folds the walk from K1 below order 6, and the order-6 graphs
    of that walk, sorted by canonical form, are the roots of the subtrees
    that _subtree_worker folds; a table with n_max <= 6 is all head.
    Records carry the exhaustive flag (2 mu + 1 <= n_max): whether every
    candidate component order for that matching number was enumerated.
    The (d-1)-star record is injected analytically when its d vertices
    exceed n_max, so star-built families stay verifiable at small n_max.
    An n_max beyond the enumeration budget raises BudgetExceededError
    before any work starts. `checkpoint` is neither read nor written when
    n_max <= 6, which has no subtree roots, nor when this process has
    already computed the table with the same checkpoint, which then comes
    from its cache. A call without a checkpoint takes the table cached
    under any checkpoint; a call that names one not yet used for this
    table computes it and reads or writes its own journal.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if d > _G6_MAX_ORDER:
        # the injected star K_{1,d-1} has d vertices, too many for graph6
        raise ValueError(f"at most {_G6_MAX_ORDER} vertices, the star witness has {d}")
    _check_budget(n_max)
    key = (d, n_max, checkpoint)
    cached = _TABLE_CACHE.get(key)
    if cached is None and checkpoint is None:
        # a call that asks for no journal may take a table computed under any
        cached = next((t for k, t in _TABLE_CACHE.items() if k[:2] == key[:2]), None)
    if cached is not None:
        return list(cached)
    deg_max = d - 1
    best: _Best = {}
    # the walk from K1 to the shard order: its graphs of that order are the
    # subtree roots, unless the table ends there
    head = list(_walk((0,), [], min(_SHARD_ORDER, n_max), deg_max))
    shard = _SHARD_ORDER if n_max > _SHARD_ORDER else n_max + 1
    _fold(best, [m for m in head if len(m) < shard])
    # one search per root gives its name and the generators its subtree needs
    roots = sorted((*_canonical_search(shard, m), m) for m in head if len(m) == shard)
    if roots:
        by_name = {form.hex(): masks for form, _gens, masks in roots}
        names = list(by_name)
        done = _load_checkpoint(checkpoint, d, n_max, by_name) if checkpoint else {}
        for records in done.values():
            for mu, g in records.items():
                _offer(best, g, mu)
        todo = [i for i, name in enumerate(names) if name not in done]
        jobs = [(roots[i][2], n_max, deg_max, roots[i][1]) for i in todo]
        pool = nullcontext()
        if workers > 1 and len(jobs) > 1:
            # imported here so that importing the package stays cheap
            from concurrent.futures import ProcessPoolExecutor

            # at most one process per job: the pool may fork them all up front
            pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
        with pool as executor:
            run = executor.map if executor else map
            for i, result in zip(todo, run(_subtree_worker, jobs)):
                if checkpoint:
                    _save_checkpoint(checkpoint, d, n_max, names[i], result)
                for mu, g in result.items():
                    _offer(best, g, mu)
    if d > n_max:
        _offer(best, star(d - 1), 1)
    records = []
    for mu, witness in sorted(_settle(best).items()):
        if matching_number(witness) != mu:
            raise AssertionError(f"witness for mu={mu}: wrong matching number")
        if fault := _class_fault(witness, d):
            raise AssertionError(f"witness for mu={mu}: {fault}")
        records.append(
            ComponentRecord(
                mu=mu,
                best_edges=witness.m,
                witness=witness,
                exhaustive=2 * mu + 1 <= n_max,
            )
        )
    _TABLE_CACHE[key] = tuple(records)
    return records


def _knapsack_row(table: list[ComponentRecord], budget: int) -> list[int]:
    """f[b] = best total edges over disjoint unions with matching number
    at most b, for every b = 0..budget."""
    f = [0] * (budget + 1)
    for b in range(1, budget + 1):
        value = f[b - 1]
        for rec in table:
            if rec.mu <= b:
                value = max(value, f[b - rec.mu] + rec.best_edges)
        f[b] = value
    return f


def combine(table: list[ComponentRecord], nu: int) -> int:
    """Best total edges over disjoint unions with matching number < nu.

    Unbounded knapsack: components may repeat, their matching numbers must
    sum to at most nu-1.
    """
    return _knapsack_row(table, max(nu - 1, 0))[-1]


def _component_cap(d: int, mu: int) -> int:
    """Edge cap for a non-star component with matching number mu.

    Such a component in an edge-extremal graph is factor-critical, hence
    on exactly 2 mu + 1 vertices; planarity and the degree bound cap its
    edges. Stars (the only other shape) are folded in for mu = 1.
    """
    n = 2 * mu + 1
    cap = min(3 * n - 6, (d - 1) * n // 2)
    if mu == 1:
        cap = max(cap, d - 1)
    return cap


def verify_theorem(
    d: int, nu: int, n_max: int, *, workers: int = 1, checkpoint: str | None = None
) -> Verdict:
    """Compare the recombination oracle against the closed-form bound.

    nu runs from 1 to 1,000,000: the domination check keeps a row nu long.
    """
    if not 1 <= nu <= 10**6:
        raise ValueError("nu must be between 1 and 1000000")
    table = component_table(d, n_max, workers=workers, checkpoint=checkpoint)
    oracle_value = combine(table, nu)
    formula_value = max_edges_planar(d, nu)
    if oracle_value > formula_value:
        raise FalsificationError(d, nu, oracle_value, formula_value)
    if oracle_value < formula_value:
        return Verdict("inconclusive", oracle_value, formula_value)
    # row[mu]: the best the exhaustive records reach within budget mu
    row = _knapsack_row([rec for rec in table if rec.exhaustive], nu - 1)
    for mu in range(1, nu):
        if 2 * mu + 1 > n_max and _component_cap(d, mu) > row[mu]:
            return Verdict("realizable-only", oracle_value, formula_value)
    return Verdict("confirmed", oracle_value, formula_value)
