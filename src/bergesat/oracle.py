"""Slow, obviously-correct reference algorithms.

``berge_oracle`` decides Berge containment by enumerating the injections of
the non-isolated pattern vertices and, per injection, every assignment of
distinct hyperedges to pattern edges -- no matching machinery, so it is an
independent ground truth for the fast engine.  It cuts only what cannot
hold a copy: a host with fewer edges than the pattern, and every injection
prefix that maps a pattern edge onto a pair no host edge covers.
``saturation_violations`` probes every missing k-set on its own, the
reference for the verifier's pair memo; ``orbit_representatives`` lists the k-sets orbit mode reports.
``min_saturation_search`` enumerates all edge subsets of bounded size and
is the ground truth for saturation numbers on tiny instances; it runs the
oracle's search on edge tuples, and builds a ``Hypergraph`` only for the
witness it returns.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from . import engine, saturation
from .core import Graph, Hypergraph, _as_edge, is_k_uniform, missing_edges
from .core import add_edge  # noqa: F401  (perfbench/tracing.py patches oracle.add_edge)

MAX_ORACLE_PATTERN_EDGES = 6
MAX_ORACLE_HOST_EDGES = 8
MAX_SEARCH_KSETS = 25
MAX_SEARCH_EDGES = 6


def berge_oracle(f: Graph, h: Hypergraph) -> bool:
    """Exhaustive Berge containment test for tiny instances.

    A host with fewer edges than the pattern has no copy, as a copy needs a
    distinct host edge per pattern edge.  Otherwise the non-isolated pattern
    vertices are placed one at a time in increasing order, each on an unused
    host vertex that lies in some host edge, and in one with the image of
    each placed neighbour.  An injection this cuts puts a pattern edge on a
    pair that no host edge covers, so it has no assignment.  Each full
    placement is tried with every assignment of distinct host edges.  The
    isolated pattern vertices are never placed: once ``f.n <= h.n`` the
    unused host vertices can take them, so the placement recurses at most
    ``2 * MAX_ORACLE_PATTERN_EDGES`` deep.
    """
    _check_pattern(f)
    if len(h.edges) > MAX_ORACLE_HOST_EDGES:
        raise ValueError(f"host has {len(h.edges)} > {MAX_ORACLE_HOST_EDGES} edges")
    return _berge_copy(f, h.n, h.edges)


def _check_pattern(f: Graph) -> None:
    if len(f.edges) > MAX_ORACLE_PATTERN_EDGES:
        raise ValueError(f"pattern has {len(f.edges)} > {MAX_ORACLE_PATTERN_EDGES} edges")


def _berge_copy(f: Graph, n: int, edges: tuple[tuple[int, ...], ...]) -> bool:
    """``berge_oracle`` on the host with vertices [0, n) and ``edges``,
    without its caps or a validated ``Hypergraph``: the caller vouches that
    the edges are distinct sorted vertex tuples and that the sizes are tiny."""
    if f.n > n or len(f.edges) > len(edges):
        return False
    host_sets = [set(e) for e in edges]
    # the covered pairs, as the vertices sharing a host edge with each vertex
    shares: dict[int, set[int]] = {}
    for e in edges:
        for v in e:
            shares.setdefault(v, set()).update(e)
    in_edges = set(shares)
    fedges = f.edges
    order = sorted({v for e in fedges for v in e})
    # the placed pattern neighbours of each position
    earlier = [[y for y in order[:i] if (y, x) in fedges] for i, x in enumerate(order)]

    def assign(i: int, placed: dict[int, int], used: list[bool]) -> bool:
        if i == len(fedges):
            return True
        x, y = fedges[i]
        a, b = placed[x], placed[y]
        for j, e in enumerate(host_sets):
            if not used[j] and a in e and b in e:
                used[j] = True
                if assign(i + 1, placed, used):
                    return True
                used[j] = False
        return False

    placed: dict[int, int] = {}
    taken = [False] * n

    def place(i: int) -> bool:
        if i == len(order):
            return assign(0, placed, [False] * len(host_sets))
        for v in in_edges.intersection(*(shares[placed[y]] for y in earlier[i])):
            if taken[v]:
                continue
            placed[order[i]] = v
            taken[v] = True
            if place(i + 1):
                return True
            taken[v] = False
        return False

    return place(0)


def saturation_violations(h: Hypergraph, f: Graph, k: int) -> list[tuple[int, ...]]:
    """Every missing k-set whose addition creates no new Berge copy of ``f``,
    in lexicographic order, one independent probe each over one index of
    ``h`` (a probe adds its set as a virtual edge and leaves the index as it
    was)."""
    index = engine._Index(h)
    pattern = engine._prepared(f) if f.n <= h.n else None
    return [t for t in missing_edges(h, k)
            if engine._search(index, pattern, required_edge=t) is None]


def orbit_representatives(h: Hypergraph, k: int) -> list[tuple[int, ...]]:
    """The missing k-sets orbit mode reports when they create no new copy:
    those that hold, with each vertex, every smaller twin (a vertex in the
    same edges), sorted by the least vertices of the twin classes they meet."""
    incident = [tuple(i for i, e in enumerate(h.edges) if v in e) for v in range(h.n)]
    least = [incident.index(inc) for inc in incident]
    reps = [t for t in missing_edges(h, k)
            if all(u in t for v in t for u in range(least[v], v) if least[u] == least[v])]
    return sorted(reps, key=lambda t: sorted(least[v] for v in t))


def _k_set(e, n: int, k: int) -> tuple[int, ...]:
    t = _as_edge(e, n)
    if len(t) != k:
        raise ValueError(f"candidate {t} is not a {k}-set")
    return t


def greedy_saturate(h: Hypergraph, f: Graph, k: int, order=None) -> Hypergraph:
    """Add missing k-edges in the given order whenever the addition keeps
    the hypergraph Berge-free; the result is certified saturated before it
    is returned, or ``RuntimeError`` is raised.  The default order is
    lexicographic, with each prefix through a pair known good skipped with
    its extensions, as none of them can be added.

    The start's freeness and every candidate are decided as the verifier
    decides them, by one ``saturation._Scan`` whose host grows by each
    accepted edge (``_Scan.accept``).  A caller-supplied candidate must be
    a k-set of the host's vertices (``ValueError`` before it is probed).
    The scan keeps the witness of each probe that rejected a candidate, and
    ``saturation._certifies`` checks the result from those witnesses rather
    than by a second full verification."""
    if not is_k_uniform(h, k):
        raise ValueError(f"hypergraph is not {k}-uniform")
    scan = saturation._Scan(h, f, k)
    if scan.witness() is not None:
        raise ValueError("hypergraph already contains the pattern")
    if order is None:
        if h.n < k:
            raise ValueError(f"hypergraph has {h.n} < k={k} vertices")
        singletons = (list(range(h.n)), [[v] for v in range(h.n)], list(range(h.n)))
        candidates = saturation._representatives(singletons, k, scan.open_prefix)
    else:
        candidates = (_k_set(e, h.n, k) for e in order)
    scan.proofs = []
    accept = scan.accept
    for t in candidates:
        accept(t)
    current = Hypergraph(h.n, tuple(scan.index.edges))
    if not saturation._certifies(current, f, k, scan.proofs):
        raise RuntimeError("greedy completion failed to certify saturation")
    return current


@dataclass
class SearchResult:
    """Outcome of the exhaustive minimum-saturation search."""

    m_star: int
    witness_h: Hypergraph
    examined: int


def _is_saturated_by_oracle(f: Graph, n: int, universe: list[tuple[int, ...]],
                            edges: tuple[tuple[int, ...], ...]) -> bool:
    """Whether the host on [0, n) with ``edges``, a subset of ``universe``
    (all k-sets), is Berge-F-saturated, decided by ``_berge_copy``.  A host
    with a missing k-set and at most |E(F)| - 2 edges is free and stays free
    with any one more edge, so it is answered without a search."""
    if len(edges) + 1 < len(f.edges) and len(edges) < len(universe):
        return False
    if _berge_copy(f, n, edges):
        return False
    # free, so any Berge copy in h + e necessarily uses e
    present = set(edges)
    return all(_berge_copy(f, n, edges + (e,)) for e in universe if e not in present)


def min_saturation_search(
    n: int, k: int, f: Graph, m_max: int, isomorph_reject: bool = False
) -> SearchResult | None:
    """Smallest edge count of a saturated k-uniform hypergraph on n vertices,
    by enumerating all edge subsets of size 0..m_max in lexicographic order
    and deciding each with ``berge_oracle``'s search (``_is_saturated_by_oracle``).

    The witness returned is the lexicographically least subset of minimum
    size, and ``examined`` counts every subset enumerated up to it.
    ``m_max < 0`` and ``k < 2`` raise ``ValueError`` before any subset is
    enumerated.  ``isomorph_reject`` is accepted and changes nothing: the
    isomorph-rejecting path it selected was slower than this one on most
    instances, and gave the same result.
    """
    if k < 2:
        raise ValueError(f"k={k} is below 2")
    if m_max < 0:
        raise ValueError(f"m_max={m_max} is negative")
    if comb(n, k) > MAX_SEARCH_KSETS:
        raise ValueError(f"C({n},{k}) exceeds the cap of {MAX_SEARCH_KSETS} possible edges")
    if m_max > MAX_SEARCH_EDGES:
        raise ValueError(f"m_max={m_max} exceeds the cap of {MAX_SEARCH_EDGES}")
    _check_pattern(f)
    universe = list(itertools.combinations(range(n), k))
    examined = 0
    for m in range(m_max + 1):
        for subset in itertools.combinations(universe, m):
            examined += 1
            if _is_saturated_by_oracle(f, n, universe, subset):
                return SearchResult(m_star=m, witness_h=Hypergraph(n, subset), examined=examined)
    return None
