"""Exact invariants for small pattern graphs, plus the standard generators.

All solvers are exhaustive (branch-and-bound or increasing-size subset
search) with hard size caps; the pattern graphs these feed are tiny and the
values gate construction hypotheses, so correctness beats speed.  The caps
are checked before any search, in ``compute_invariants`` the tightest first.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import Graph

MAX_VERTICES_SUBSET = 32
MAX_VERTICES_FEEDBACK = 24


@dataclass(frozen=True)
class InvariantReport:
    alpha: int
    beta: int
    delta: int
    girth: int | None  # None means acyclic
    feedback: int
    feedback_set: tuple[int, ...]


def _adjacency_masks(g: Graph) -> list[int]:
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def independence_number(g: Graph) -> int:
    """Largest edgeless vertex set, by branch and bound over bitmasks."""
    if g.n > MAX_VERTICES_SUBSET:
        raise ValueError(f"graph too large for exhaustive search (n={g.n})")
    adj = _adjacency_masks(g)
    best = 0

    def grow(avail: int, size: int) -> None:
        nonlocal best
        if size + bin(avail).count("1") <= best:
            return
        if avail == 0:
            best = size
            return
        # branch on the available vertex with most available neighbours
        pick, pick_deg = -1, -1
        m = avail
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = bin(adj[v] & avail).count("1")
            if d > pick_deg:
                pick, pick_deg = v, d
        if pick_deg == 0:
            best = size + bin(avail).count("1")
            return
        grow(avail & ~adj[pick] & ~(1 << pick), size + 1)
        grow(avail & ~(1 << pick), size)

    grow((1 << g.n) - 1, 0)
    return best


def vertex_cover_number(g: Graph) -> int:
    """Smallest vertex set meeting every edge, by branching on an uncovered
    edge (independent of the independence-number code path); the first
    budget, in increasing order, that admits a cover is the minimum."""
    if g.n > MAX_VERTICES_SUBSET:
        raise ValueError(f"graph too large for exhaustive search (n={g.n})")

    def covers(edges: list[tuple[int, int]], budget: int) -> bool:
        if not edges:
            return True
        if budget == 0:
            return False
        return any(covers([e for e in edges if pick not in e], budget - 1) for pick in edges[0])

    return next(b for b in range(g.n + 1) if covers(list(g.edges), b))


def min_degree(g: Graph) -> int:
    if g.n == 0:
        raise ValueError("graph has no vertices")
    return min(g.degrees())


def girth(g: Graph) -> int | None:
    """Length of the shortest cycle, or None for a forest.

    Breadth-first search from every vertex; a non-tree edge met at depth d
    closes a cycle of length dist[u] + dist[w] + 1.
    """
    if g.n > MAX_VERTICES_SUBSET:
        raise ValueError(f"graph too large for exhaustive search (n={g.n})")
    adj = g.adjacency()
    best: int | None = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: -1}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and dist[w] >= dist[u]:
                        cyc = dist[u] + dist[w] + 1
                        if best is None or cyc < best:
                            best = cyc
            if best is not None and dist[frontier[0]] * 2 >= best:
                break
            frontier = nxt
    return best


def _is_acyclic_after_removal(g: Graph, removed: frozenset[int]) -> bool:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        if u in removed or v in removed:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def feedback_number(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Minimum number of vertices whose deletion leaves a forest, plus the
    lexicographically least set achieving it."""
    if g.n > MAX_VERTICES_FEEDBACK:
        raise ValueError(f"graph too large for exhaustive search (n={g.n})")
    for size in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), size):
            if _is_acyclic_after_removal(g, frozenset(subset)):
                return size, subset
    raise AssertionError("unreachable: deleting all vertices is acyclic")


def compute_invariants(g: Graph) -> InvariantReport:
    """Every invariant of ``g``.  The feedback search runs first, as its cap
    is the tightest; β is n - α by Gallai's identity."""
    f, fset = feedback_number(g)
    alpha = independence_number(g)
    return InvariantReport(
        alpha=alpha,
        beta=g.n - alpha,
        delta=min_degree(g),
        girth=girth(g),
        feedback=f,
        feedback_set=fset,
    )


def make_clique(size: int) -> Graph:
    if size < 2:
        raise ValueError("clique needs at least 2 vertices")
    return Graph(size, tuple(itertools.combinations(range(size), 2)))


def make_star(leaves: int) -> Graph:
    if leaves < 2:
        raise ValueError("star needs at least 2 leaves")
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def make_cycle(length: int) -> Graph:
    if length < 3:
        raise ValueError("cycle needs at least 3 vertices")
    edges = tuple((i, (i + 1) % length) for i in range(length))
    return Graph(length, edges)


def make_path(vertices: int) -> Graph:
    if vertices < 2:
        raise ValueError("path needs at least 2 vertices")
    return Graph(vertices, tuple((i, i + 1) for i in range(vertices - 1)))


def complete_join(f: Graph, g: Graph) -> Graph:
    """Disjoint union of the two graphs plus every edge between them.

    The second operand is relabelled to ids ``f.n .. f.n+g.n-1``.
    """
    shift = f.n
    edges = list(f.edges)
    edges.extend((u + shift, v + shift) for u, v in g.edges)
    edges.extend((u, v + shift) for u in range(f.n) for v in range(g.n))
    return Graph(f.n + g.n, tuple(edges))
