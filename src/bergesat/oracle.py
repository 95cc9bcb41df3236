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
is the ground truth for saturation numbers on tiny instances.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from . import engine, saturation
from .core import Graph, Hypergraph, _as_edge, add_edge, is_k_uniform, missing_edges

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
    if len(f.edges) > MAX_ORACLE_PATTERN_EDGES:
        raise ValueError(f"pattern has {len(f.edges)} > {MAX_ORACLE_PATTERN_EDGES} edges")
    if len(h.edges) > MAX_ORACLE_HOST_EDGES:
        raise ValueError(f"host has {len(h.edges)} > {MAX_ORACLE_HOST_EDGES} edges")
    if f.n > h.n or len(f.edges) > len(h.edges):
        return False
    host_sets = [set(e) for e in h.edges]
    # the covered pairs, as the vertices sharing a host edge with each vertex
    shares: dict[int, set[int]] = {}
    for e in h.edges:
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
    taken = [False] * h.n

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
    scan = saturation._Scan(h, f, k, saturation._swap_groups(h))
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


def _canonical_form(edge_subset, n: int):
    """A relabelling of ``edge_subset`` that is equal for two subsets iff
    they are isomorphic.

    Each vertex is keyed by its degree in the subset plus the sorted degree
    profiles of the edges containing it.  The cells of equal key are ordered
    by key, and the form is the least relabelled edge list over only the
    permutations that map each cell onto its own block of positions.  The
    keys do not depend on vertex labels, so an isomorphism between two
    subsets maps cells onto cells of the same key and size, and carries the
    cell-respecting relabellings of one onto those of the other: the two
    minima are taken over the same relabelled edge lists and are equal.
    Conversely, equal forms are both relabellings of the same edge list.
    """
    deg = [0] * n
    for e in edge_subset:
        for v in e:
            deg[v] += 1
    profiles: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for e in edge_subset:
        profile = tuple(sorted(deg[v] for v in e))
        for v in e:
            profiles[v].append(profile)
    keys = [(deg[v], tuple(sorted(profiles[v]))) for v in range(n)]
    cells: dict = {}
    for v in range(n):
        cells.setdefault(keys[v], []).append(v)
    blocks = [cells[key] for key in sorted(cells)]
    # vertices of degree 0 lie in no edge, so every order of their cell (the
    # first, if any) gives the same edge list: they stay out of the product
    start = 0
    if blocks and deg[blocks[0][0]] == 0:
        start = len(blocks.pop(0))
    best = None
    perm = [0] * n
    for arrangement in itertools.product(*map(itertools.permutations, blocks)):
        for pos, v in enumerate(itertools.chain.from_iterable(arrangement), start):
            perm[v] = pos
        relabeled = tuple(sorted(tuple(sorted(perm[v] for v in e)) for e in edge_subset))
        if best is None or relabeled < best:
            best = relabeled
    return best


def _is_saturated_by_oracle(h: Hypergraph, f: Graph, k: int) -> bool:
    if berge_oracle(f, h):
        return False
    # free, so any Berge copy in h + e necessarily uses e
    return all(berge_oracle(f, add_edge(h, e)) for e in missing_edges(h, k))


def min_saturation_search(
    n: int, k: int, f: Graph, m_max: int, isomorph_reject: bool = False
) -> SearchResult | None:
    """Smallest edge count of a saturated k-uniform hypergraph on n vertices,
    by enumerating all edge subsets of size 0..m_max in lexicographic order.

    The witness returned is the lexicographically least subset of minimum
    size.  Isomorph rejection (off by default, so the naive path stays the
    trusted oracle) skips a subset iff its canonical form was already seen,
    that is iff it is isomorphic to an earlier subset, which failed; so
    ``m_star``, ``witness_h`` and ``examined`` are unchanged.  The form
    minimises only over relabellings that respect an invariant vertex
    partition.
    """
    if comb(n, k) > MAX_SEARCH_KSETS:
        raise ValueError(f"C({n},{k}) exceeds the cap of {MAX_SEARCH_KSETS} possible edges")
    if m_max > MAX_SEARCH_EDGES:
        raise ValueError(f"m_max={m_max} exceeds the cap of {MAX_SEARCH_EDGES}")
    universe = list(itertools.combinations(range(n), k))
    examined = 0
    seen_canonical = set()
    for m in range(m_max + 1):
        for subset in itertools.combinations(universe, m):
            examined += 1
            if isomorph_reject:
                canon = _canonical_form(subset, n)
                if canon in seen_canonical:
                    continue
                seen_canonical.add(canon)
            h = Hypergraph(n, subset)
            if _is_saturated_by_oracle(h, f, k):
                return SearchResult(m_star=m, witness_h=h, examined=examined)
    return None
