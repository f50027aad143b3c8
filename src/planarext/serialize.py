"""graph6 and DOT serialization, plus the single-graph certificate report.

graph6 (B. McKay, formats.txt in the nauty distribution) packs the upper
triangle of the adjacency matrix column-wise into 6-bit groups offset by
63. The header is the single byte n+63 for n <= 62 and the standard long
form (126 followed by three 6-bit digits of n) above that, which the
largest star-built families here need. Decoding validates length, byte
range and zero padding, so a truncated or hand-mangled string never
produces a silently wrong graph.

The encoder writes the output bytes straight from the adjacency rows:
it starts from the header and one "?" (63, an empty group) per 6-bit
group, and each edge j < k adds 32 >> pos % 6 to byte pos // 6, where
pos = k(k-1)/2 + j is the edge's place in the triangle. That is one step
per edge and one byte per group, and nothing larger than the output is
held. The decoder visits only the non-empty groups, which a compiled
regular expression finds in C, and maps each set bit to its edge (j, k)
by a column (k, base) that only moves forward. It holds nothing beyond
the input and the rows, which go to the validating Graph constructor.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass

from .bounds import max_edges_planar
from .graphs import Graph, _relabelled, bits, max_degree
from .matching import matching_number
from .planarity import is_planar

_G6_MAX_ORDER = 258047  # the largest order a four-byte header holds; no longer one is read
_G6_BYTES = bytes(range(63, 127))
_NONEMPTY_GROUP = re.compile(rb"[^?]")


def graph6_encode(g: Graph) -> str:
    """graph6 string for g (short form for n <= 62, long form above)."""
    n = g.n
    if n > _G6_MAX_ORDER:
        raise ValueError(f"graph6 supports at most {_G6_MAX_ORDER} vertices")
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126] + [((n >> s) & 63) + 63 for s in (12, 6, 0)])
    start = len(out)
    out += b"?" * ((n * (n - 1) // 2 + 5) // 6)
    for k, row in enumerate(g.adj):
        base = k * (k - 1) // 2
        for j in row:  # ascending, so the edges j < k come first
            if j >= k:
                break
            pos = base + j
            out[start + pos // 6] += 32 >> pos % 6
    return out.decode("ascii")


def graph6_decode(text: str) -> Graph:
    """Parse a graph6 string; strict about padding and length."""
    if not text:
        raise ValueError("empty graph6 string")
    data = text.encode("utf-8", "surrogatepass")  # non-ASCII gives bytes >= 128
    if data.translate(None, _G6_BYTES):
        raise ValueError("graph6 bytes must be printable ASCII in [63, 126]")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ValueError(f"graph6 orders above {_G6_MAX_ORDER} are not supported")
        if len(data) < 4:
            raise ValueError("truncated long-form graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n <= 62:
            raise ValueError("long-form graph6 header used for an order under 63")
        header_len = 4
    else:
        n = data[0] - 63
        header_len = 1
    nbits = n * (n - 1) // 2
    expected = header_len + (nbits + 5) // 6
    if len(data) != expected:
        raise ValueError(
            f"graph6 length {len(data)} does not match order {n} (expected {expected})"
        )
    # columns arrive in ascending order, so every row fills in ascending
    # order: a vertex's lower neighbours in its own column, then the rest
    rows: list[list[int]] = [[] for _ in range(n)]
    k = base = 0  # column k holds the triangle positions base .. base + k - 1
    for group in _NONEMPTY_GROUP.finditer(data, header_len):
        start = 6 * (group.start() - header_len) + 5
        for b in reversed(bits(data[group.start()] - 63)):  # high bit first
            pos = start - b
            if pos >= nbits:
                raise ValueError("graph6 padding bits must be zero")
            while pos >= base + k:
                base += k
                k += 1
            j = pos - base
            rows[k].append(j)
            rows[j].append(k)
    # the Graph constructor validates the rows; from_masks is left to
    # enumerated graphs, whose calls perfbench counts as the census
    return Graph(n, tuple(map(tuple, rows)))


def dot_export(g: Graph) -> str:
    """DOT text for g: one node line per vertex, one edge line per edge."""
    nodes = [f"  {v};" for v in range(g.n)]
    edges = [f"  {u} -- {v};" for u, v in g.edges()]
    return "\n".join(["graph G {", *nodes, *edges, "}"]) + "\n"


@dataclass(frozen=True)
class CertificateReport:
    """Membership and tightness report for one graph against a class (d, nu)."""

    d: int
    nu: int
    graph_g6: str
    planar: bool
    max_degree: int
    matching_number: int
    edge_count: int
    bound: int
    tight: bool

    def to_json(self) -> str:
        payload = {
            "params": {"d": self.d, "nu": self.nu},
            "graph_g6": self.graph_g6,
            "planar": self.planar,
            "max_degree": self.max_degree,
            "matching_number": self.matching_number,
            "edge_count": self.edge_count,
            "bound": self.bound,
            "tight": self.tight,
        }
        return json.dumps(payload, indent=2)


def certificate(g: Graph, d: int, nu: int) -> CertificateReport:
    """Evaluate a graph against the planar class (d, nu) and its edge bound.

    tight means the graph is a class member (planar, max degree below d,
    matching number below nu) meeting the class maximum exactly.

    Planarity and the matching number are derived per distinct connected
    component: the graph is planar iff each component is, and matching
    numbers add. Components are grouped by their rows after relabelling
    0..k-1 in vertex order, so two share a group only when they are the
    same labelled graph. Each distinct one goes through the full
    is_planar, with its Euler check or Kuratowski witness check.
    """
    groups = Counter(rows for _, rows in _relabelled(g.adj))
    parts = [(g if len(k) == g.n else Graph(len(k), k), count) for k, count in groups.items()]
    planar = all(is_planar(c).verdict for c, _ in parts)
    nu_g = sum(count * matching_number(c) for c, count in parts)
    maxdeg = max_degree(g)
    bound = max_edges_planar(d, nu)
    tight = planar and maxdeg < d and nu_g < nu and g.m == bound
    return CertificateReport(
        d=d,
        nu=nu,
        graph_g6=graph6_encode(g),
        planar=planar,
        max_degree=maxdeg,
        matching_number=nu_g,
        edge_count=g.m,
        bound=bound,
        tight=tight,
    )
