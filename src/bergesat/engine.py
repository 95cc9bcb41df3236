"""Berge containment search with reproducible witnesses.

A hypergraph contains a Berge copy of a pattern graph F when some injective
placement of V(F) (the core vertices) admits an injective assignment of a
distinct containing hyperedge to every pattern edge.  One backtracking search
places the pattern vertices position by position and keeps a bipartite
matching between the already-placed pattern edges and hyperedges
incrementally; a partial placement is abandoned the moment that matching
stops being perfect.

Pattern vertices are tried in descending pattern-degree order and host
candidates in descending hyperedge-degree order (ids break ties), and a host
vertex is a candidate for a pattern vertex only if its hyperedge degree is at
least the pattern degree.  All iteration orders are fixed, so the witness
returned for a given input never changes.

Symmetric placements are searched once, by lex-leader bounds (Crawford,
Ginsberg, Luks and Roy, "Symmetry-breaking predicates for search problems",
KR 1996).  Write a placement as the sequence s of host positions of the
pattern positions.  The search returns the lexicographically least valid s,
since every prune below cuts only subtrees without a valid placement.  An
automorphism of F turns a valid placement into a valid one: it keeps the
pattern edges, hence the matching, and the pattern degrees, hence the degree
prefixes, and it keeps the core image, hence the required and forbidden
cores and the required edge.  So the least valid s is no greater than any
relabelling of itself.  If an automorphism fixes the vertices at positions
0..j-1 and maps the vertex at j onto the vertex at i > j, relabelling s by
it leaves s[0..j-1] and puts s[i] at j, hence s[j] < s[i].  Position i
therefore starts its host loop after every such j (``_Pattern.less`` keeps
the latest, built from automorphisms verified on the edge set), and leaves
room for the later positions forced after it, whose pattern degrees, hence
limits, equal its own.  When every later position is forced after it, i
ends just after the first required vertex still unplaced, which no later
position could take: one bound on a node's candidates, listed or scanned.
The least valid s meets all of these bounds, and the matcher's state at a
node depends only on the node's path, so the witness, its edge assignment
included, is the one the unbounded search finds.  With every pair found,
one placement of each class related by automorphisms meets the bounds (one
in ten for C5, in 12 for K_{2,3}); a complete pattern's core set becomes
unordered.  Preparing a pattern costs more than most searches, so each
distinct pattern is prepared once (``_prepared``).

A search with a required edge gives up on a partial placement once no
pattern edge can still end with both endpoints inside that edge: an edge
already placed inside it qualifies, an edge with one endpoint placed inside
needs one unused vertex of it, and an unplaced edge needs two.  For a
complete pattern this is "fewer than two positions can still land inside".
The prune removes only placements whose matching could never be rerouted
onto the required edge, so the first witness found is unchanged.  A vertex
placed outside the required edge changes neither count, so where the next
level would give up on it (after the last position: no placed edge inside),
a position tries only vertices inside the edge.  So the leaf cannot fail:
with no placed pattern edge inside the required edge, the last position
passes the give-up test only as the latest one joined to a placed position
inside it, and takes a vertex of it; that pattern edge's supply holds the
required edge, onto which the leaf reroutes the matching.

A search with a required core looks ahead in the same way: each required
vertex not yet placed needs an open position whose degree prefix of the host
order holds it and whose placed pattern neighbours all share a hyperedge
with it (the virtual edge of a probe included).  A partial placement that
leaves some required vertex no such position is abandoned; it holds no
witness, so the order of the search and its first witness are unchanged.
Without a required core the look-ahead costs one integer test per node.

A pattern edge between a candidate and a placed neighbour's image can only
take a hyperedge holding both, so only a vertex that shares a hyperedge with
the image of every placed pattern neighbour (the virtual edge counted) can
take a position.  Where the latest placed neighbour's image has few
neighbours (fewer, times ``_LIST_FACTOR``, than the host positions a scan
would end at), a node intersects the neighbour sets of the placed
neighbours' images (``_Index.adj``) and visits only the common neighbours,
sorted by rank, an integer that orders vertices as the host list does.
Those are exactly the candidates a scan would push, in the same order, so
the search and its first witness, edge assignment included, are unchanged.
Any other node scans its range of the host, and the matcher is
snapshotted only before a candidate's first push: a candidate turned down
by an empty supply before that has changed nothing to restore.

A complete pattern with a required edge takes increasing host positions,
and two of them must land inside the edge, because the edge must hold both
ends of the pattern edge it is assigned to.  With j vertices of the edge
placed (j < 2), a position stops at the host position of the (2 - j)-th
last vertex of the edge, and a search whose edge has fewer than two
candidates gives up at once: a placement past that bound leaves too few of
them for the later positions, which lie further on, so it holds no witness
and the first witness is unchanged.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

from .core import Graph, Hypergraph, _as_edge
from .invariants import make_clique

Edge = tuple[int, ...]


@dataclass(frozen=True)
class SearchConstraints:
    """Restrictions on the witness being searched for.

    required_core must be covered by the core image, forbidden_core must be
    avoided by it, and required_edge (a vertex set naming one hyperedge) must
    appear in the image of the edge assignment.
    """

    required_core: frozenset[int] = frozenset()
    forbidden_core: frozenset[int] = frozenset()
    required_edge: Edge | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "required_core", frozenset(self.required_core))
        object.__setattr__(self, "forbidden_core", frozenset(self.forbidden_core))
        if self.required_core & self.forbidden_core:
            raise ValueError("required_core and forbidden_core overlap")
        if self.required_edge is not None:
            object.__setattr__(self, "required_edge", tuple(sorted(self.required_edge)))


@dataclass
class BergeWitness:
    """An injective core placement plus the pattern-edge -> hyperedge
    assignment certifying a Berge copy."""

    core_map: dict[int, int]
    edge_map: dict[tuple[int, int], Edge]

    def serialize(self) -> str:
        """Stable text block: one ``core:`` line, then one ``edge:`` line per
        pattern edge in lexicographic order."""
        core = " ".join(f"{x}->{w}" for x, w in sorted(self.core_map.items()))
        lines = [f"core: {core}"]
        for (x, y), e in sorted(self.edge_map.items()):
            inner = ",".join(map(str, e))
            lines.append(f"edge: {{{x},{y}}} -> {{{inner}}}")
        return "\n".join(lines) + "\n"


def validate_witness(f: Graph, h: Hypergraph, w: BergeWitness) -> None:
    """Independent witness checker; raises ValueError on any defect.

    Deliberately plain: membership tests only, no search machinery shared
    with the solver.
    """
    if sorted(w.core_map) != list(range(f.n)):
        raise ValueError("core_map does not cover the pattern vertex set")
    images = list(w.core_map.values())
    if len(set(images)) != len(images):
        raise ValueError("core_map is not injective")
    if any(not 0 <= v < h.n for v in images):
        raise ValueError("core_map image out of range")
    if sorted(w.edge_map) != sorted(f.edges):
        raise ValueError("edge_map keys differ from the pattern edge set")
    host = h.edge_set()
    used = set()
    for (x, y), e in w.edge_map.items():
        t = tuple(sorted(e))
        if t not in host:
            raise ValueError(f"assigned hyperedge {set(t)} not in the hypergraph")
        if t in used:
            raise ValueError(f"hyperedge {set(t)} assigned twice")
        used.add(t)
        if w.core_map[x] not in t or w.core_map[y] not in t:
            raise ValueError(f"pattern edge {{{x},{y}}} not contained in {set(t)}")


# ---------------------------------------------------------------------------
# incremental matching


class _Matcher:
    """Incremental matcher used while extending a core placement.

    Demands are pushed in search order; a failed push means the matching on
    the placed pattern edges cannot be perfect, so the caller backtracks and
    restores an earlier snapshot.  Along any live search path the matching is
    perfect, hence no final recomputation is needed.
    """

    __slots__ = ("owner", "assigned", "supplies")

    def __init__(self) -> None:
        self.owner: dict[int, int] = {}  # hyperedge id -> demand index
        self.assigned: list[int] = []  # demand index -> hyperedge id
        self.supplies: list[Sequence[int]] = []

    def snapshot(self) -> tuple[dict[int, int], list[int], int]:
        return dict(self.owner), list(self.assigned), len(self.supplies)

    def restore(self, snap: tuple[dict[int, int], list[int], int]) -> None:
        self.owner, self.assigned, depth = snap
        del self.supplies[depth:]

    def push(self, supply: Sequence[int]) -> bool:
        """Add a demand with the non-empty ``supply``; False if the matching
        can no longer cover every demand."""
        self.supplies.append(supply)
        d = len(self.assigned)
        e = supply[0]
        if e not in self.owner:
            # the first step of _augment, without its visited set
            self.owner[e] = d
            self.assigned.append(e)
            return True
        self.assigned.append(-1)
        return self._augment(d, set())

    def _augment(self, d: int, visited: set[int]) -> bool:
        for e in self.supplies[d]:
            if e in visited:
                continue
            visited.add(e)
            holder = self.owner.get(e, -1)
            if holder == -1 or self._augment(holder, visited):
                self.owner[e] = d
                self.assigned[d] = e
                return True
        return False

    def force_use(self, eid: int) -> None:
        """Reroute the matching onto hyperedge ``eid``, which a supply holds."""
        if eid in self.owner:
            return
        for d, supply in enumerate(self.supplies):
            if eid in supply:
                del self.owner[self.assigned[d]]
                self.owner[eid] = d
                self.assigned[d] = eid
                return


# ---------------------------------------------------------------------------
# host index and pattern data


class _Index:
    """Per-hypergraph lookup tables shared by many searches.

    ``adj[v]`` maps each vertex w that shares a hyperedge with v to the
    ascending ids of those hyperedges, and ``adj[v][w]`` is ``adj[w][v]``:
    the supply of the pair, and the keys of ``adj[v]`` are the neighbours
    of v.
    """

    __slots__ = ("n", "edges", "deg", "adj", "id_of", "_cands")

    def __init__(self, h: Hypergraph) -> None:
        self.n = h.n
        self.edges: list[Edge] = []
        self.deg = [0] * h.n
        self.adj: list[dict[int, list[int]]] = [{} for _ in range(h.n)]
        self.id_of: dict[Edge, int] = {}
        self._cands: dict[int, tuple[list[int], int]] = {}
        self.add(*h.edges)

    def add(self, *edges: Edge) -> None:
        """Index the sorted, absent hyperedges ``edges`` under the next ids."""
        ids, id_of, deg, adj = self.edges, self.id_of, self.deg, self.adj
        for eid, e in enumerate(edges, len(ids)):
            ids.append(e)
            id_of[e] = eid
            for v in e:
                deg[v] += 1
            for a, b in itertools.combinations(e, 2):
                shared = adj[a].get(b)
                if shared is None:
                    adj[a][b] = adj[b][a] = [eid]
                else:
                    shared.append(eid)
        self._cands.clear()

    def candidates(self, need: int) -> tuple[list[int], int]:
        """Vertices of hyperedge degree >= need, best degree first, and the
        fewest neighbours any of them has."""
        cached = self._cands.get(need)
        if cached is None:
            deg = self.deg
            # the sort is stable, so ids ascend among equal degrees
            cands = sorted([w for w in range(self.n) if deg[w] >= need],
                           key=deg.__getitem__, reverse=True)
            adj = self.adj
            cached = cands, min([len(adj[w]) for w in cands], default=0)
            self._cands[need] = cached
        return cached


# ---------------------------------------------------------------------------
# pattern symmetry

_AUTOMORPHISM_BUDGET = 100  # individualizations per pattern, past transpositions

# An ordered partition of the pattern vertices is a triple (part, cell, end):
# ``part`` lists the vertices cell by cell, ``cell[v]`` is the position where
# the cell of v starts and ``end[s]`` where the cell starting at s ends.
# Cells are named by position and split in an order that depends only on
# positions and neighbour counts, so the same steps applied to isomorphic
# starting partitions give partitions that correspond cell by cell.


def _refine(adj, part, cell, end, queue) -> None:
    """Refine an ordered partition in place to its coarsest equitable
    refinement, in which the vertices of a cell have equally many neighbours
    in every cell.  ``queue`` holds the starts of the cells to split by;
    the partition must already be equitable with respect to the others."""
    queue = deque(queue)
    waiting = set(queue)
    while queue:
        w = queue.popleft()
        waiting.discard(w)
        count: dict[int, int] = {}
        for x in part[w:end[w]]:
            for v in adj[x]:
                count[v] = count.get(v, 0) + 1
        for s in sorted({cell[v] for v in count}):
            e = end[s]
            members = sorted(part[s:e], key=lambda v: count.get(v, 0))
            keys = [count.get(v, 0) for v in members]
            if keys[0] == keys[-1]:
                continue
            part[s:e] = members
            starts = [s] + [p for p in range(s + 1, e) if keys[p - s] != keys[p - s - 1]]
            bounds = starts + [e]
            for a, b in zip(starts, bounds[1:]):
                end[a] = b
                for v in part[a:b]:
                    cell[v] = a
            # a queued cell is split by its pieces anyway; otherwise all but
            # one largest piece suffice (Hopcroft)
            if s not in waiting:
                sizes = [b - a for a, b in zip(starts, bounds[1:])]
                del starts[sizes.index(max(sizes))]
            new = [a for a in starts if a not in waiting]
            queue.extend(new)
            waiting.update(new)


def _individualize(adj, partition, x):
    """A refined copy of ``partition`` in which x is alone in its cell, at
    the position where that cell started."""
    part, cell, end = (list(a) for a in partition)
    s = cell[x]
    e = end[s]
    if e - s > 1:
        i = part.index(x, s, e)
        part[s], part[i] = x, part[s]
        end[s], end[s + 1] = s + 1, e
        for v in part[s + 1:e]:
            cell[v] = s + 1
        _refine(adj, part, cell, end, [s])
    return part, cell, end


def _automorphism(f: Graph, adj, left, right, y: int, budget: list[int]) -> list[int] | None:
    """An automorphism of ``f`` carrying each cell of the equitable partition
    ``left`` onto the cell at the same position of ``right`` with y
    individualized, or None when none is found within ``budget[0]`` more
    individualizations.

    Both sides are refined alike, so where they differ in shape no such
    automorphism exists.  Otherwise the first non-singleton cell is split by
    one vertex on the left and, in turn, by each vertex of the matching cell
    on the right.  A discrete pair of partitions gives one mapping, which is
    returned only if it maps every edge to an edge.
    """
    budget[0] -= 1
    if budget[0] < 0:
        return None
    lpart, lcell, lend = left
    rpart, rcell, rend = right = _individualize(adj, right, y)
    starts = sorted(set(lcell))
    if starts != sorted(set(rcell)) or any(lend[s] != rend[s] for s in starts):
        return None
    s = next((s for s in starts if lend[s] - s > 1), None)
    if s is None:
        g = [0] * f.n
        for a, b in zip(lpart, rpart):
            g[a] = b
        edges = set(f.edges)
        if all(((g[u], g[v]) if g[u] < g[v] else (g[v], g[u])) in edges for u, v in f.edges):
            return g
        return None
    budget[0] -= 1
    split = _individualize(adj, left, lpart[s])
    for b in rpart[s:rend[s]]:
        g = _automorphism(f, adj, split, right, b, budget)
        if g is not None or budget[0] < 0:
            return g
    return None


def _lex_leader_bounds(f: Graph, order: list[int]) -> list[list[int]]:
    """For each position i of ``order``, the earlier positions j such that a
    verified automorphism of ``f`` fixes the vertices at positions 0..j-1
    and maps the vertex at j onto the vertex at i.

    Level j refines the vertex set with the vertices at positions 0..j-1
    individualized; an automorphism fixing them keeps each cell, so
    only the cell of the vertex x at j is tried, and once the partition is
    discrete no later level can hold a pair.  A candidate y is proved by
    the transposition of x and y (twins), by the orbit of x under the
    automorphisms found so far at this level, or by an individualization
    search within a budget shared by the whole pattern.  A pair left out
    only weakens the search's pruning.
    """
    nf = f.n
    adj = f.adjacency()
    pos = {x: i for i, x in enumerate(order)}
    less: list[list[int]] = [[] for _ in range(nf)]
    partition = (list(range(nf)), [0] * nf, [nf] * nf)
    _refine(adj, *partition, [0] if nf else [])
    budget = [_AUTOMORPHISM_BUDGET]
    for j, x in enumerate(order):
        part, cell, end = partition
        if len(set(cell)) == nf:
            break
        s = cell[x]
        split = _individualize(adj, partition, x)
        orbit = {x}
        found: list[list[int]] = []  # automorphisms fixing positions 0..j-1
        # x comes first: the vertices at earlier positions are singletons
        for y in sorted(part[s:end[s]], key=pos.__getitem__)[1:]:
            if y not in orbit:
                if adj[x] - {y} == adj[y] - {x}:  # the transposition of x and y
                    orbit.add(y)
                elif budget[0] > 0:
                    g = _automorphism(f, adj, split, partition, y, budget)
                    if g is not None:
                        found.append(g)
                        # a transposition moves only x and an orbit member,
                        # so the orbit is closed under the searched ones alone
                        frontier = list(orbit)
                        while frontier:
                            v = frontier.pop()
                            for h in found:
                                if h[v] not in orbit:
                                    orbit.add(h[v])
                                    frontier.append(h[v])
            if y in orbit:
                less[pos[y]].append(j)
        partition = split
    return less


class _Pattern:
    """Pattern graph preprocessed for the search.  Instances are shared
    through ``_prepared`` and must not be modified."""

    __slots__ = (
        "nf", "edges", "deg", "low", "unordered", "order", "less", "above",
        "back_edges", "demands", "last_nbr", "last_pair",
    )

    def __init__(self, f: Graph) -> None:
        self.nf = f.n
        self.edges = list(f.edges)
        self.deg = f.degrees()
        self.low = min(self.deg, default=0)
        # a complete pattern's witness numbers its core set in host order
        self.unordered = f.n >= 2 and len(f.edges) == f.n * (f.n - 1) // 2
        self.order = sorted(range(f.n), key=lambda x: (-self.deg[x], x))
        # position i takes a host position after that of position less[i]
        # (-1: none), the latest of its lex-leader bounds.  It implies the
        # others once orbits are complete: if j < j' both bound i, then the
        # vertices at i, j and j' share one orbit under the automorphisms
        # fixing positions 0..j-1, so j bounds j'.  Where the budget left
        # that unproved, the others are dropped, which only weakens the
        # pruning.  above[i] counts the later positions forced after i
        # through chains of less.  A complete pattern needs no search for them.
        self.less = (list(range(-1, f.n - 1)) if self.unordered else
                     [max(bound, default=-1) for bound in _lex_leader_bounds(f, self.order)])
        below = [0] * f.n  # bit j set: position j is forced before position i
        for i, j in enumerate(self.less):
            if j >= 0:
                below[i] = below[j] | 1 << j
        self.above = [sum(below[k] >> i & 1 for k in range(i + 1, f.n)) for i in range(f.n)]
        pos = {x: i for i, x in enumerate(self.order)}
        # each pattern edge is a demand of its later-placed endpoint: position
        # i is joined to the earlier positions back_edges[i], ascending as
        # ends is sorted, and the matcher's demands are the pattern edges in
        # placement order.  For the required-edge prune: the latest position
        # joined to each position, and the latest position at which some
        # pattern edge still has both endpoints unplaced (-1 when none)
        ends = sorted(
            (max(pos[x], pos[y]), min(pos[x], pos[y]), (x, y)) for x, y in f.edges
        )
        self.back_edges: list[list[int]] = [[] for _ in range(f.n)]
        self.last_nbr = [-1] * f.n
        for j, i, _ in ends:
            self.back_edges[j].append(i)
            self.last_nbr[i] = max(self.last_nbr[i], j)
            self.last_nbr[j] = max(self.last_nbr[j], i)
        self.demands = [fe for _, _, fe in ends]
        self.last_pair = max((i for _, i, _ in ends), default=-1)


@functools.lru_cache(maxsize=128)
def _prepared(f: Graph) -> _Pattern:
    """The search data of ``f``, built once per distinct pattern.  A
    ``Graph`` is frozen with its edges sorted, so equal patterns are equal
    keys; the symmetry step costs more than many searches."""
    return _Pattern(f)


# ---------------------------------------------------------------------------
# the search


# a node lists the common neighbours of its placed neighbours' images when
# the latest one's neighbours, times this, are fewer than the positions its
# scan would end at (BENCH_probe_kernel.json, "listing_rule")
_LIST_FACTOR = 4


def _search(
    index: _Index,
    pattern: _Pattern | None,
    required_core: frozenset[int] = frozenset(),
    forbidden_core: frozenset[int] = frozenset(),
    required_edge: Edge | None = None,
) -> BergeWitness | None:
    """Complete search for one witness whose edge assignment uses
    ``required_edge`` (when given); returns the witness or None.

    A ``required_edge`` missing from the index is a probe: it is treated as
    an extra hyperedge with id ``len(index.edges)``, appended without
    rebuilding the index, which is how probes over thousands of candidate
    edge additions stay cheap.  A pattern with more vertices than the host
    has no witness; callers pass None for it rather than prepare it.
    """
    if pattern is None:
        return None
    nf = pattern.nf
    vid = len(index.edges)  # the virtual edge's id
    req_eid = -1
    rset: frozenset[int] = frozenset()
    vset = rset  # the virtual edge's vertices
    if required_edge is not None:
        req_eid = index.id_of.get(required_edge, vid)
        rset = frozenset(required_edge)
        if req_eid == vid:
            vset = rset
    # a pattern without edges has none to put on a required edge
    if len(pattern.edges) > vid + (req_eid == vid) or required_edge and not pattern.edges:
        return None

    # host candidates, best degree (counting the virtual edge) first; a
    # vertex's rank orders it the same way, as one integer
    n = index.n
    deg = index.deg
    low = pattern.low
    top = vid + 1  # no degree exceeds it, the virtual edge counted

    def rank(w: int) -> int:
        return w + n * (top - deg[w] - (w in vset))

    host, fewest = index.candidates(low)
    adj = index.adj
    # the host positions of the required edge's vertices, ascending
    inside_at = []
    if vset:
        # the virtual edge raises its vertices' degrees by one, which moves
        # them to where their new degrees sort; inserted in host order, each
        # lands after the ones before, so its position is final
        host = [w for w in host if w not in vset and w not in forbidden_core]
        for w in sorted(vset, key=rank):
            if deg[w] >= low - 1 and w not in forbidden_core:
                p = bisect.bisect_left(host, rank(w), key=rank)
                host.insert(p, w)
                inside_at.append(p)
                if len(adj[w]) < fewest:
                    fewest = len(adj[w])
    else:
        if forbidden_core:
            host = [w for w in host if w not in forbidden_core]
        if rset and pattern.unordered:
            inside_at = sorted(bisect.bisect_left(host, rank(r), key=rank) for r in rset
                               if r not in forbidden_core and deg[r] >= low)
    if required_core and not required_core <= set(host):
        return None
    # position i may only use the prefix of host whose degrees admit its
    # pattern degree; all of host admits the least pattern degree
    fdeg = pattern.deg
    limit = []
    p = 0
    for x in pattern.order:
        if fdeg[x] == low:
            p = len(host)
        while p < len(host) and deg[host[p]] + (host[p] in vset) >= fdeg[x]:
            p += 1
        limit.append(p)

    less = pattern.less
    above = pattern.above
    back = pattern.back_edges
    # give up once no pattern edge can still land inside the required edge
    prune = required_edge is not None
    last_nbr = pattern.last_nbr
    last_pair = pattern.last_pair
    rsize = len(rset)
    # a complete pattern takes increasing host positions, and two of them
    # must lie inside the required edge: with j of them placed, a position
    # ends after the host position of the (2 - j)-th last vertex of the edge
    ends = None
    if prune and pattern.unordered:
        if len(inside_at) < 2:
            return None
        ends = (inside_at[-2] + 1, inside_at[-1] + 1)
    factor = _LIST_FACTOR
    # no node lists where no host vertex has few enough neighbours
    listing = fewest * factor < len(host)
    # every candidate's rank lies below past, and no other vertex's does
    past = n * (top - low + 1)
    matcher = _Matcher()
    image = [-1] * nf
    # the host position of each placed position's image, None where it came
    # from a list of common neighbours; the extra last slot, read as
    # placed_at[-1] for a position without a bound, stays -1
    placed_at: list[int | None] = [-1] * (nf + 1)
    used: set[int] = set()
    at = {r: host.index(r) for r in required_core}

    def open_position(r: int, i: int) -> bool:
        """Some position j >= i can still take the unplaced vertex r: its
        degree prefix holds r, and r shares a hyperedge with the image of
        every placed pattern neighbour of j (back[j] is ascending)."""
        p = at[r]
        for j in range(i, nf):
            if p >= limit[j]:
                continue
            for q in back[j]:
                if q >= i:
                    return True
                a = image[q]
                if not (r in adj[a] or a in vset and r in vset):
                    break
            else:
                return True
        return False

    # reach is nf once a placed pattern edge lies inside the required edge,
    # else the latest position joined to a placed position inside it
    def rec(i: int, in_req_edge: int, req_left: int, reach: int):
        if req_left and (req_left > nf - i or i and not all(
                r in used or open_position(r, i) for r in required_core)):
            return None
        if i == nf:
            if prune:  # reach is nf: a placed pattern edge's supply holds req_eid
                matcher.force_use(req_eid)
            return _witness(index, pattern, image, matcher.assigned, required_edge)
        inside_only = False
        if prune and reach < nf:
            # the last level that can still place a pattern edge inside the required edge
            free = rsize - in_req_edge
            horizon = max(reach if free else -1, last_pair if free >= 2 else -1)
            if i > horizon:
                return None
            inside_only = i == horizon  # a vertex outside it leaves level i + 1 giving up
        # lex-leader: start after the host position of less[i], and end at
        # stop, which leaves room for the later positions forced after i
        # (they share its limit), and for the vertices of the required edge
        # a complete pattern still has to place
        back_i = back[i]
        stop = limit[i] - above[i]
        if ends is not None and in_req_edge < 2 and ends[in_req_edge] < stop:
            stop = ends[in_req_edge]
        lists = listing and back_i and len(adj[image[back_i[-1]]]) * factor < stop
        if req_left and above[i] == nf - 1 - i:
            # every later position lies after i: a required vertex passed over is lost
            stop = min([stop, *(at[r] + 1 for r in required_core if r not in used)])
        if lists:
            # few vertices share a hyperedge with the latest placed
            # neighbour's image: list those sharing one with the image of
            # every placed neighbour, in host order (ascending rank), as
            # only they have a supply for every back edge
            near = None
            for j in back_i:
                a = image[j]
                a_near = adj[a].keys() | vset if a in vset else adj[a].keys()
                near = a_near if near is None else near & a_near
            if forbidden_core:
                near = near - forbidden_core
            lo = rank(image[less[i]]) if less[i] >= 0 else -1
            hi = past if stop >= len(host) else rank(host[stop])
            # rank(w), inlined
            ranks = sorted(r for w in near if lo < (r := w + n * (top - deg[w] - (w in vset))) < hi)
            src = [r % n for r in ranks]
            first, stop = 0, len(src)
        else:
            src = host
            first = placed_at[less[i]]
            if first is None:
                first = bisect.bisect_left(host, rank(image[less[i]]), key=rank)
            first += 1
        for p in range(first, stop):
            w = src[p]
            if w in used or inside_only and w not in rset:
                continue
            # snapshot only before the first push: a candidate turned down by
            # an empty supply has changed nothing
            snap = None
            for j in back_i:
                a = image[j]
                supply = adj[a].get(w, ())
                if a in vset and w in vset:
                    supply = (*supply, vid)  # never extend the index's list
                if not supply:
                    break
                if snap is None:
                    snap = matcher.snapshot()
                if not matcher.push(supply):
                    break
            else:
                image[i] = w
                placed_at[i] = p if src is host else None
                used.add(w)
                next_reach = reach
                if prune and w in rset:
                    inside = any(image[j] in rset for j in back_i)
                    next_reach = max(reach, nf if inside else last_nbr[i])
                res = rec(i + 1, in_req_edge + (w in rset), req_left - (w in required_core),
                          next_reach)
                if res:
                    return res
                used.discard(w)
            if snap is not None:
                matcher.restore(snap)
        return None

    return rec(0, 0, len(required_core), -1)


def _witness(index, pattern, image, assigned, virtual_edge) -> BergeWitness:
    """The witness of a complete placement: ``image[i]`` is the core vertex at
    position i of the pattern order, and demand d holds hyperedge id
    ``assigned[d]`` (the id past the last host edge is the virtual edge)."""
    edges = [index.edges[e] if e < len(index.edges) else virtual_edge for e in assigned]
    edge_of = dict(zip(pattern.demands, edges))
    if not pattern.unordered:
        return BergeWitness(dict(zip(pattern.order, image)), edge_of)
    # number the core set of a complete pattern in increasing host id
    core = sorted(image)
    at = dict(zip(image, pattern.order))
    edge_map = {}
    for s, t in pattern.edges:
        x, y = at[core[s]], at[core[t]]
        edge_map[(s, t)] = edge_of[(x, y) if x < y else (y, x)]
    return BergeWitness(dict(enumerate(core)), edge_map)


# ---------------------------------------------------------------------------
# public operations


def find_berge_witness(
    f: Graph, h: Hypergraph, constraints: SearchConstraints | None = None
) -> BergeWitness | None:
    """Search for a Berge copy of ``f`` in ``h`` subject to ``constraints``.

    The search is complete: None means no witness exists.  Constraints that
    are well formed but unsatisfiable simply yield None; a core vertex outside
    [0, n) or a required edge that is not a set of vertices of ``h`` raises
    ValueError.
    """
    c = constraints or SearchConstraints()
    for v in sorted(c.required_core | c.forbidden_core):
        if not 0 <= v < h.n:
            raise ValueError(f"core vertex {v} out of range for n={h.n}")
    required_edge = None if c.required_edge is None else _as_edge(c.required_edge, h.n)
    index = _Index(h)
    if required_edge is not None and required_edge not in index.id_of:
        return None
    return _search(
        index,
        _prepared(f) if f.n <= h.n else None,
        required_core=c.required_core,
        forbidden_core=c.forbidden_core,
        required_edge=required_edge,
    )


def contains_berge(f: Graph, h: Hypergraph) -> bool:
    return find_berge_witness(f, h) is not None


def creates_new_berge(h: Hypergraph, e, f: Graph) -> bool:
    """True iff adding ``e`` to ``h`` yields a Berge copy of ``f`` whose edge
    assignment uses ``e``."""
    t = _as_edge(e, h.n)
    index = _Index(h)
    if t in index.id_of:
        raise ValueError(f"edge {set(t)} already present")
    return _search(index, _prepared(f) if f.n <= h.n else None, required_edge=t) is not None


def is_ell_good(h: Hypergraph, u: int, v: int, ell: int) -> bool:
    """True iff adding the pair ``uv`` creates a new Berge clique on ``ell``
    vertices.  Only requires the 2-edge ``uv`` itself to be absent."""
    return creates_new_berge(h, (u, v), make_clique(ell))
