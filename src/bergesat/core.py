"""Graph and hypergraph values, their text formats, and edge dominance.

Vertices are dense integers ``0..n-1``.  Graph edges are unordered pairs;
hyperedges are vertex sets of size >= 2 kept in insertion order.  Everything
is immutable after construction, so values can be shared freely between
concurrent calls.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from math import comb
from typing import Iterator


class ParseError(ValueError):
    """Malformed input text; carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0..n-1``.

    No self-loops, no duplicate edges.  Isolated vertices are representable
    (join operands need them); the text parser compacts them away instead.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        canon = []
        for e in self.edges:
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if u < 0 or v >= self.n:
                raise ValueError(f"edge {{{u},{v}}} out of range for n={self.n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge {{{u},{v}}}")
            seen.add((u, v))
            canon.append((u, v))
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj


def _as_edge(e, n: int) -> tuple[int, ...]:
    """``e`` as a sorted tuple; ValueError unless it is a set of at least two
    distinct vertices of [0, n)."""
    t = tuple(sorted(e))
    if len(t) < 2:
        raise ValueError(f"hyperedge {t} has fewer than 2 vertices")
    if len(set(t)) != len(t):
        raise ValueError(f"hyperedge {t} repeats a vertex")
    if t[0] < 0 or t[-1] >= n:
        raise ValueError(f"hyperedge {t} out of range for n={n}")
    return t


@dataclass(frozen=True, eq=False)
class Hypergraph:
    """Vertex set ``0..n-1`` plus an ordered family of distinct vertex sets.

    Uniformity is a property to check, not a type invariant: probes that add
    a single pair to a k-uniform family are first-class values here.
    Equality and hashing ignore edge order.
    """

    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        canon = []
        for e in self.edges:
            t = _as_edge(e, self.n)
            if t in seen:
                raise ValueError(f"duplicate hyperedge {set(t)}")
            seen.add(t)
            canon.append(t)
        object.__setattr__(self, "edges", tuple(canon))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hypergraph):
            return NotImplemented
        return self.n == other.n and frozenset(self.edges) == frozenset(other.edges)

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.edges)))

    def edge_set(self) -> frozenset[tuple[int, ...]]:
        """The edges as a set, built on the first call and then kept."""
        return self._edge_set

    @functools.cached_property
    def _edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for e in self.edges:
            for v in e:
                deg[v] += 1
        return deg

    def normalized(self) -> "Hypergraph":
        """Copy with the edge family in lexicographic order."""
        return Hypergraph(self.n, tuple(sorted(self.edges)))


def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line.split()


def _parse_id(token: str, line_no: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(line_no, f"not a vertex id: {token!r}") from None
    if value < 0:
        raise ParseError(line_no, f"negative vertex id: {value}")
    return value


def parse_graph_with_map(text: str) -> tuple[Graph, dict[int, int]]:
    """Parse the two-ids-per-line edge format.

    Vertex ids in the file may be sparse; they are compacted to ``0..n-1``
    preserving order, so the result has no isolated vertices.  Returns the
    graph and the file-id -> compact-id renumbering.
    """
    pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for line_no, tokens in _content_lines(text):
        if len(tokens) != 2:
            raise ParseError(line_no, f"expected two vertex ids, got {len(tokens)} tokens")
        u, v = (_parse_id(t, line_no) for t in tokens)
        if u == v:
            raise ParseError(line_no, f"self-loop at vertex {u}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise ParseError(line_no, f"duplicate edge {{{key[0]},{key[1]}}}")
        seen.add(key)
        pairs.append(key)
    ids = sorted({v for p in pairs for v in p})
    renumber = {old: new for new, old in enumerate(ids)}
    edges = tuple((renumber[u], renumber[v]) for u, v in pairs)
    return Graph(len(ids), edges), renumber


def parse_graph(text: str) -> Graph:
    return parse_graph_with_map(text)[0]


def serialize_graph(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges)


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the one-edge-per-line hypergraph format.

    An optional first content line ``n <count>`` fixes the vertex count,
    allowing trailing isolated vertices; otherwise the count is the largest
    id seen plus one.  Ids are used as-is (no compaction).
    """
    declared_n: int | None = None
    edges: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    first = True
    for line_no, tokens in _content_lines(text):
        if first and tokens[0] == "n":
            if len(tokens) != 2:
                raise ParseError(line_no, "header must be 'n <count>'")
            declared_n = _parse_id(tokens[1], line_no)
            first = False
            continue
        first = False
        ids = [_parse_id(t, line_no) for t in tokens]
        if len(ids) < 2:
            raise ParseError(line_no, "hyperedge has fewer than 2 vertices")
        edge = tuple(sorted(ids))
        if len(set(edge)) != len(edge):
            raise ParseError(line_no, "hyperedge repeats a vertex")
        if edge in seen:
            raise ParseError(line_no, f"duplicate hyperedge {set(edge)}")
        seen.add(edge)
        edges.append(edge)
    max_id = max((e[-1] for e in edges), default=-1)
    n = declared_n if declared_n is not None else max_id + 1
    if max_id >= n:
        raise ParseError(1, f"declared n={n} but saw vertex id {max_id}")
    return Hypergraph(n, tuple(edges))


def serialize_hypergraph(h: Hypergraph) -> str:
    lines = [f"n {h.n}\n"]
    lines.extend(" ".join(map(str, e)) + "\n" for e in sorted(h.edges))
    return "".join(lines)


def is_k_uniform(h: Hypergraph, k: int) -> bool:
    if k < 2:
        raise ValueError("uniformity k must be at least 2")
    return all(len(e) == k for e in h.edges)


def missing_edges(h: Hypergraph, k: int) -> Iterator[tuple[int, ...]]:
    """Yield each k-subset of the vertex set that is not an edge, in
    lexicographic order (the k-uniform complement)."""
    if h.n < k:
        raise ValueError(f"hypergraph has {h.n} < k={k} vertices")
    present = {e for e in h.edges if len(e) == k}
    for t in itertools.combinations(range(h.n), k):
        if t not in present:
            yield t


def count_missing_edges(h: Hypergraph, k: int) -> int:
    present = sum(1 for e in h.edges if len(e) == k)
    return comb(h.n, k) - present


def dominates(h: Hypergraph, u: int, v: int) -> bool:
    """True iff every edge containing ``v`` also contains ``u`` (v is
    dominated by u)."""
    for w in (u, v):
        if not 0 <= w < h.n:
            raise ValueError(f"vertex {w} out of range for n={h.n}")
    return all(u in e for e in h.edges if v in e)


def add_edge(h: Hypergraph, e) -> Hypergraph:
    """New hypergraph with the vertex set ``e`` appended as an edge."""
    t = tuple(sorted(e))
    if t in h.edge_set():
        raise ValueError(f"edge {set(t)} already present")
    return Hypergraph(h.n, h.edges + (t,))
