"""Freeness and saturation verification.

The verifier treats the hypergraph as opaque.  Full mode decides every
missing k-set and is the only mode that certifies saturation.  Sampled mode
probes a seeded uniform sample of missing k-sets.  Orbit mode reports one
missing k-set per multiset of twin classes -- a sanity pass that is not a
certificate.

Every mode, and greedy completion (``oracle.greedy_saturate``), decides a
missing set with one scan state, ``_Scan``.  A missing set t creates a
new Berge copy iff some pair {a, b} inside t does as a bare 2-edge: the
pattern edge assigned to t has its core images in t, and swapping t for any
set through a and b that is not an edge keeps the copy valid.  So a probe's
witness proves the core images of t's pattern edge a good pair, and a probe
that fails proves every pair inside t bad.  A missing set with a pair known
good, or with every pair known bad, needs no probe; any other set is probed,
so the answers are exact.

Pairs are known by swap group.  An automorphism of the host carries each
Berge copy of h + {a, b} to one of h + {a', b'}, so pairs in one orbit are
good or bad together.  Two vertices are twins when they lie in exactly the
same edges; swapping them is an automorphism.  Two twin classes C and D of
one size swap when mapping C's members onto D's in increasing order, and
back, maps every edge to an edge; this is checked on the edge set, never
assumed.  Swapping is an equivalence: if C and D each swap with F, then
(C, D) = (D, F)(C, F)(D, F) is a composition of automorphisms.  So the
classes fall into swap groups, and any permutation of the classes of a
group, with twins permuted freely inside each class, is an automorphism.
Two pairs whose ends lie in the same two groups, both in one class or both
in two classes, are thus in one orbit: one memo entry per key decides all
of its pairs.

Sets are decided by orbit too: two sets with the same counts on the classes
of each group lie in one orbit of these permutations, and are decided
alike.  An edge's orbit holds only edges.  Full mode, orbit mode,
``all_pairs_good`` and ``all_subsets_are_cores`` walk one set per orbit
(``_representatives``): it meets groups in increasing order, on each its
first classes with non-increasing counts, and on each class its first
members.  A scan extends a prefix only while none of its pairs is known
good (``_Scan.open_prefix``), as every k-set through a good pair creates a
new copy; greedy's default order is this walk with one vertex per group.
Full mode lists every k-set of the violating orbits, sorted (``_expand``);
orbit mode lists the least member of each twin-class multiset of those
orbits, which takes the first members of each class it meets, sorted by
the class numbers of its vertices.  ``_expand`` counts each orbit before
listing it and refuses with ``ValueError`` past ``MAX_VIOLATIONS`` sets.

Greedy completion re-keys after each edge t it adds (``_Scan.accept``).  A
class that t meets splits into its members inside and outside t, which
leave its group.  Other classes keep their keys: a swap of two classes that
miss t fixes t.  A part joins the group of a class it swaps with, or starts
one, so the groups are those of ``_swap_groups`` on the new host.  A good
pair stays good, so a part's pairs inherit the good marks of its class's
pairs; bad marks are dropped.  A group left with one class of its own that
a part joins drops its mark across classes, proved on a class that left.

Greedy's scan keeps the witness of each probe that rejected a candidate
t (``_Scan.proofs``), and its result is certified from them
(``_certifies``) rather than by a second ``is_saturated``.  The witness is
a copy in the result plus t, as the host only grew after the probe, so its
pair stays good.  The check trusts neither the run's keys nor its marks:
freeness is decided by a search, a fresh scan keys the result by
``_swap_groups``, a key is marked good only from a witness that
``engine.validate_witness`` accepts, and the orbit walk of full mode
probes every orbit that no mark covers.

Every scan runs in process, each call on a ``_Scan`` of its own, so
concurrent calls share no state and ``_expand`` refuses at the set that
crosses the cap.
"""

from __future__ import annotations

import itertools
import random
import time
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from math import comb

from . import engine
from .core import Graph, Hypergraph, count_missing_edges, is_k_uniform
from .engine import BergeWitness
from .invariants import make_clique

Edge = tuple[int, ...]

MAX_VIOLATIONS = 1_000_000  # sets a report may list; each is held in memory and printed


@dataclass
class SaturationReport:
    is_free: bool
    violations_free: list[BergeWitness]
    checked_missing: int
    violations_sat: list[Edge]
    mode: str  # "full" | "sampled" | "orbits"
    elapsed: float = field(default=0.0, compare=False)
    sample_count: int | None = None
    sample_seed: int | None = None
    reduction_factor: float | None = None

    @property
    def saturated(self) -> bool:
        """Certified saturation; only full mode can certify."""
        return self.is_free and not self.violations_sat and self.mode == "full"

    @property
    def no_violations(self) -> bool:
        """Nothing wrong among whatever was checked."""
        return self.is_free and not self.violations_sat


def is_berge_free(h: Hypergraph, f: Graph) -> tuple[bool, BergeWitness | None]:
    w = engine.find_berge_witness(f, h)
    return w is None, w


@dataclass
class PairGoodnessReport:
    checked: int
    good: int
    failures: list[tuple[int, int]]

    @property
    def ok(self) -> bool:
        return not self.failures


def all_pairs_good(h: Hypergraph, ell: int) -> PairGoodnessReport:
    """Check every vertex pair not already present as a 2-edge: does adding
    it create a new Berge clique on ``ell`` vertices?  Raises ``ValueError``
    rather than list more than ``MAX_VIOLATIONS`` failures."""
    scan = _Scan(h, make_clique(ell), 2)
    failures = _expand(scan.first(), scan.groups)
    checked = count_missing_edges(h, 2)
    return PairGoodnessReport(checked=checked, good=checked - len(failures),
                              failures=failures)


@dataclass
class CoreCoverageReport:
    """Outcome of checking every m-subset as a candidate core set."""

    subset_size: int
    checked: int
    failures: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def all_subsets_are_cores(h: Hypergraph, m: int) -> CoreCoverageReport:
    """Check that every m-subset of vertices is exactly the core set of some
    Berge clique on m vertices; ``ValueError`` past ``MAX_VIOLATIONS`` failures."""
    if m > h.n:
        raise ValueError(f"subset size {m} exceeds vertex count {h.n}")
    index = engine._Index(h)
    pattern = engine._prepared(make_clique(m))
    groups = _swap_groups(h)
    failing = (t for t in _representatives(groups, m)
               if engine._search(index, pattern, required_core=frozenset(t)) is None)
    return CoreCoverageReport(m, comb(h.n, m), _expand(failing, groups))


def all_cores_present(h: Hypergraph, ell: int) -> CoreCoverageReport:
    """Every (ell-1)-subset of vertices must be the core set of a Berge
    clique on ell-1 vertices."""
    return all_subsets_are_cores(h, ell - 1)


# ---------------------------------------------------------------------------
# lexicographic rank arithmetic for k-subsets of [0, n)


def _rank_kset(t: Edge, n: int) -> int:
    # the k-sets after t: C(n - 1 - v, k - i) agree with t before position i, exceed v there
    k = len(t)
    return comb(n, k) - 1 - sum(comb(n - 1 - v, k - i) for i, v in enumerate(t))


# ---------------------------------------------------------------------------
# the scan


def _pair_key(ka: tuple[int, int], kb: tuple[int, int]) -> tuple[int, int, bool]:
    """The memo key of a pair whose ends have the vertex keys ``ka`` and
    ``kb``, each a (swap group, twin class): the sorted groups, and whether
    both ends lie in one class."""
    (ga, ca), (gb, cb) = ka, kb
    return (ga, gb, ca == cb) if ga <= gb else (gb, ga, ca == cb)


class _Scan:
    """One scan's state: the indexed host, the prepared pattern, the vertex
    keys, the twin class members and the pair memo.  ``groups`` is
    ``_swap_groups(h)``, which ``first`` walks on the host as given and
    whose members list ``accept`` extends."""

    def __init__(self, h: Hypergraph, f: Graph, k: int) -> None:
        self.index = engine._Index(h)
        self.pattern = engine._prepared(f) if f.n <= h.n else None  # None: no copy fits
        self.k = k
        self.groups = _swap_groups(h)
        cls, self.members, group = self.groups
        self.key = [(group[c], c) for c in cls]
        self.fresh = itertools.count(len(group))  # group numbers not yet used
        self.good: set[tuple[int, int, bool]] = set()
        self.bad: set[tuple[int, int, bool]] = set()
        self.proofs: list[tuple[Edge, BergeWitness]] | None = None  # greedy's kept witnesses

    def creates_new(self, t: Edge) -> bool:
        """Does adding the missing set ``t`` to the host create a new Berge copy?

        ``key[v]`` is the vertex key of v; pairs of equal ``_pair_key`` lie in
        one orbit of the host's automorphisms.  ``t`` is answered without a
        probe when one of its pairs is known good, or when all of them are
        known bad.  Otherwise it is probed once: a witness marks good the key
        of the core images of the pattern edge it assigns to ``t``, and a
        failure marks bad the key of every pair of ``t``.  A scan that keeps
        ``proofs`` appends each such (t, witness) to them.

        The keys are computed one at a time, and the first one known good
        answers: nothing is read or marked before it but ``good``, so the
        answers, probes and marks are those of testing the whole list.  On a
        saturated host nearly every set stops at its first key, and the list
        is completed only for a set with no good pair.
        """
        key, good, bad = self.key, self.good, self.bad
        keys = []
        for a, b in itertools.combinations(t, 2):
            pk = _pair_key(key[a], key[b])
            if pk in good:
                return True
            keys.append(pk)
        if bad.issuperset(keys):
            return False
        w = engine._search(self.index, self.pattern, required_edge=t)
        if w is None:
            bad.update(keys)
            return False
        x, y = next(fe for fe, e in w.edge_map.items() if e == t)
        good.add(_pair_key(key[w.core_map[x]], key[w.core_map[y]]))
        if self.proofs is not None:
            self.proofs.append((t, w))
        return True

    def witness(self) -> BergeWitness | None:
        """The host's copy of the pattern that ``find_berge_witness`` finds."""
        return engine._search(self.index, self.pattern)

    def open_prefix(self, t: Edge) -> bool:
        """Whether no pair of ``t`` is known good: every k-set through a good
        pair creates a new copy, so a walk extends only open prefixes."""
        key = self.key
        pairs = itertools.combinations(t, 2)
        return self.good.isdisjoint(_pair_key(key[a], key[b]) for a, b in pairs)

    def first(self) -> Iterator[Edge]:
        """Lazily, the sorted representatives of the orbits that are missing
        and create no new Berge copy, in walk order."""
        found = (tuple(sorted(t)) for t in _representatives(self.groups, self.k, self.open_prefix))
        return (t for t in found if t not in self.index.id_of and not self.creates_new(t))

    def accept(self, t: Edge) -> None:
        """Greedy's step: add ``t`` if it is missing and creates no new copy,
        then drop the bad marks and re-key (see the module docstring)."""
        index, key, members, good = self.index, self.key, self.members, self.good
        if t in index.id_of or self.creates_new(t):
            return
        index.add(t)
        self.bad.clear()
        touched = {key[v][1]: key[v] for v in t}
        classes = [key[m[0]] for m in members if m]
        carried = [(c, kd[1]) for c, kc in touched.items() for kd in classes
                   if _pair_key(kc, kd) in good]
        rep = {g: d for g, d in classes if d not in touched}  # a class that stays in each group
        parts: dict[int, list[int]] = {}
        for c in touched:
            members.append([v for v in members[c] if v in t])
            members[c] = [v for v in members[c] if v not in t]
            parts[c] = [len(members) - 1] + ([c] if members[c] else [])
        deg = index.deg
        for p in itertools.chain(*parts.values()):
            m = members[p]
            g = next((g for g, d in rep.items() if deg[members[d][0]] == deg[m[0]]
                      and _swaps(m, members[d], index.edges, index.id_of)), None)
            if g is None:
                g = next(self.fresh)
                rep[g] = p
            elif sum(gd == g and d not in touched for gd, d in classes) == 1:
                good.discard((g, g, False))
            for v in m:
                key[v] = (g, p)
        for c, d in carried:
            for a, b in itertools.product(parts[c], parts.get(d, (d,))):
                if a != b or len(members[a]) > 1:
                    good.add(_pair_key(key[members[a][0]], key[members[b][0]]))


def _expand(found: Iterable[Edge], groups, least: bool = False) -> list[Edge]:
    """Every set of the orbits of the representatives ``found``, sorted; or,
    with ``least``, the least member of each twin-class multiset of those
    orbits, sorted by the class numbers of its vertices.  Each orbit is
    counted as it is read, so a lazy ``found`` is read no further once the
    listing passes ``MAX_VIOLATIONS``."""
    cls, members, group = groups
    classes = _class_members(group)  # the classes of each group, in order
    fixed = [len(members[c]) == len(classes[g]) == 1 for c, g in enumerate(group)]
    out: list[Edge] = []
    orbits = []  # each other orbit: (g, p) -> how many classes of group g hold p of t
    total = 0
    for t in found:
        if all(fixed[cls[v]] for v in t):  # no permutation moves t
            out.append(tuple(sorted(t)))
            total += 1
        else:
            orbit: dict[tuple[int, int], int] = {}
            for c, p in Counter(cls[v] for v in t).items():
                orbit[group[c], p] = orbit.get((group[c], p), 0) + 1
            size, taken = 1, {}  # taken: the classes of each group given a count so far
            for (g, p), mult in orbit.items():
                free = len(classes[g]) - taken.get(g, 0)
                size *= comb(free, mult)
                if not least:  # each of those classes gives p of its members
                    size *= comb(len(members[classes[g][0]]), p) ** mult
                taken[g] = taken.get(g, 0) + mult
            total += size
            orbits.append(orbit)
        if total > MAX_VIOLATIONS:
            raise ValueError(f"{total} violations exceed the cap of {MAX_VIOLATIONS}")
    for orbit in orbits:
        ways: list[tuple[Edge, Edge]] = [((), ())]  # its class multisets: (classes, counts)
        for (g, p), mult in orbit.items():
            ways = [(cs + chosen, ps + (p,) * mult) for cs, ps in ways for chosen in
                    itertools.combinations([c for c in classes[g] if c not in cs], mult)]
        for cs, ps in ways:
            if least:
                out.append(tuple(sorted(v for c, p in zip(cs, ps) for v in members[c][:p])))
            else:
                out.extend(tuple(sorted(itertools.chain(*part))) for part in itertools.product(
                    *map(itertools.combinations, map(members.__getitem__, cs), ps)))
    if least:
        return sorted(out, key=lambda t: sorted(cls[v] for v in t))
    return sorted(out)


def _representatives(groups, m: int, keep=lambda t: True) -> Iterator[Edge]:
    """One set of m >= 1 vertices per orbit of ``_expand``, lazily: it meets
    groups in increasing order, on each its first classes with
    non-increasing counts, and on each class its first members.  A prefix
    for which ``keep`` is false is not extended."""
    gm = [[groups[1][c] for c in cs] for cs in _class_members(groups[2])]  # members by group

    def grow(t: Edge, g: int, j: int, i: int, cap: int) -> Iterator[Edge]:
        # t ends with the first i members of class j of group g, which may hold
        # cap; the next class of g may hold i
        if not keep(t):
            return
        if len(t) == m:
            yield t
            return
        if i < cap:
            yield from grow(t + (gm[g][j][i],), g, j, i + 1, cap)
        if j + 1 < len(gm[g]):
            yield from grow(t + (gm[g][j + 1][0],), g, j + 1, 1, i)
        for d in range(g + 1, len(gm)):
            yield from grow(t + (gm[d][0][0],), d, 0, 1, len(gm[d][0]))

    return itertools.chain.from_iterable(
        grow((gm[g][0][0],), g, 0, 1, len(gm[g][0])) for g in range(len(gm)))


def _certifies(h: Hypergraph, f: Graph, k: int,
               proofs: list[tuple[Edge, BergeWitness]]) -> bool:
    """Whether greedy's result ``h`` is free and saturated, checked from the
    run's ``proofs``: each missing set t it rejected, with the witness of
    the probe that rejected it (see the module docstring).

    Each proof must pass ``engine.validate_witness`` and assign t to one
    pattern edge and edges of ``h`` to the others, or the check fails; it
    then marks good the key of that pattern edge's core images.  A missing
    proof costs probes, never the answer.
    """
    scan = _Scan(h, f, k)
    if scan.witness() is not None:
        return False
    present = h.edge_set()
    sets = list(dict.fromkeys(t for t, _ in proofs))
    if not present.isdisjoint(sets):
        return False
    host = Hypergraph(h.n, h.edges + tuple(sets))  # one edge set for every validation
    for t, w in proofs:
        try:
            engine.validate_witness(f, host, w)
        except ValueError:
            return False
        outside = [fe for fe, e in w.edge_map.items() if tuple(sorted(e)) not in present]
        if [tuple(sorted(w.edge_map[fe])) for fe in outside] != [t]:
            return False
        x, y = outside[0]
        scan.good.add(_pair_key(scan.key[w.core_map[x]], scan.key[w.core_map[y]]))
    return not any(scan.first())


# ---------------------------------------------------------------------------
# twin classes


def _twin_classes(h: Hypergraph) -> list[int]:
    """The twin class of each vertex, numbered in order of least vertex.

    Twins lie in exactly the same edges (each dominates the other), so
    swapping two of them maps every edge to itself: an automorphism of h.
    """
    incident: dict[int, list[int]] = {}
    for eid, e in enumerate(h.edges):
        for v in e:
            incident.setdefault(v, []).append(eid)
    keys = [tuple(incident.get(v, ())) for v in range(h.n)]
    ids = {inc: c for c, inc in enumerate(dict.fromkeys(keys))}
    return [ids[inc] for inc in keys]


def _class_members(cls: list[int]) -> list[list[int]]:
    """The members of each twin class, in increasing order."""
    members: list[list[int]] = [[] for _ in range(max(cls, default=-1) + 1)]
    for v, c in enumerate(cls):
        members[c].append(v)
    return members


def _swap_groups(h: Hypergraph) -> tuple[list[int], list[list[int]], list[int]]:
    """The twin class of each vertex, the members of each class, and the
    swap group of each class, groups numbered in order of least vertex.

    A class joins the first group whose first class it swaps with, or starts
    a new one (see the module docstring).  A swap keeps every degree, so
    only classes of one size, degree and multiset of degrees met in their
    edges are tested.  A swap is checked on the edges that meet its two
    classes only, as it fixes every other edge; an edge that meets a class
    holds all of it.
    """
    cls = _twin_classes(h)
    members = _class_members(cls)
    meets: list[list[Edge]] = [[] for _ in members]  # the edges through each class
    for e in h.edges:
        for v in e:
            if members[cls[v]][0] == v:
                meets[cls[v]].append(e)
    edges = h.edge_set()
    deg = h.degrees()
    group: list[int] = []
    firsts: dict[tuple, list[int]] = {}  # signature -> first class of each group
    count = 0
    for c in range(len(members)):
        mates = sorted(deg[v] for e in meets[c] for v in e)
        same = firsts.setdefault((len(members[c]), len(meets[c]), *mates), [])
        first = next((f for f in same if _swaps(members[f], members[c],
                                                  meets[f] + meets[c], edges)), None)
        if first is None:
            same.append(c)
            group.append(count)
            count += 1
        else:
            group.append(group[first])
    return cls, members, group


def _swaps(cm: list[int], dm: list[int], edges: Iterable[Edge], present) -> bool:
    """Whether swapping the twin classes ``cm`` and ``dm`` in increasing order
    maps each of ``edges`` that meets them into ``present``."""
    image = dict(zip(cm, dm))
    image.update(zip(dm, cm))
    return len(cm) == len(dm) and all(tuple(sorted(image.get(v, v) for v in e)) in present
                                      for e in edges if cm[0] in e or dm[0] in e)


def _count_class_multisets(cls: list[int], k: int) -> int:
    """The multisets of k twin classes that some k-set has: the x^k
    coefficient of the product over classes C of 1 + x + ... + x^|C|."""
    coef = [1] + [0] * k
    for size in Counter(cls).values():
        coef = [sum(coef[j - min(size, j): j + 1]) for j in range(k + 1)]
    return coef[k]


# ---------------------------------------------------------------------------
# sampling


def _sample_missing(h: Hypergraph, k: int, count: int, seed: int) -> list[Edge]:
    """A seeded uniform sample of missing k-sets, in lexicographic order.

    The picks are positions among the missing k-sets.  Both the picks and
    the ranks of the existing edges are sorted, so one merge turns each
    pick into a rank: the missing k-set at position ``i`` has rank ``i + j``
    once ``j`` existing edges rank at or below it.

    Each rank is unranked from the one before it.  The k-sets that share
    their first k-1 vertices have consecutive ranks and differ only in the
    last vertex, one step per rank, so a rank that stays in the previous
    set's run moves only that vertex, by the difference of the ranks.  Any
    other rank is unranked by one bisection per position d < k-1:
    ``below[d][u]`` = C(n, k-d) - C(n-u, k-d) counts the (k-d)-sets of
    [0, n) whose least vertex is below u, so the k-sets that agree with a
    prefix ending before s and hold a vertex below u at position d number
    ``below[d][u] - below[d][s]``.  That row is the identity for d = k-1, so
    what is left of the rank there is the last vertex's offset from s.  One
    sampled set thus costs its merge step and either one tuple or k-1
    bisections.
    """
    n = h.n
    total = count_missing_edges(h, k)
    existing = sorted(_rank_kset(e, n) for e in h.edges if len(e) == k)
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(total), min(count, total)))
    below = [[comb(n, k - d) - comb(n - u, k - d) for u in range(n + 1)] for d in range(k - 1)]
    out: list[Edge] = []
    j = 0
    prev, last = -1, n  # the previous set's rank and last vertex; no run before the first
    for i in picks:
        while j < len(existing) and existing[j] <= i + j:
            j += 1
        rank = i + j
        last += rank - prev
        if last < n:  # same first k-1 vertices as the previous set
            out.append((*out[-1][:-1], last))
        else:
            r, s, t = rank, 0, []
            for row in below:
                r += row[s]
                s = bisect_right(row, r)
                r -= row[s - 1]
                t.append(s - 1)
            last = s + r
            out.append((*t, last))
        prev = rank
    return out


# ---------------------------------------------------------------------------
# the verifier


def is_saturated(
    h: Hypergraph,
    f: Graph,
    k: int,
    *,
    jobs: int = 1,
    sample: int | None = None,
    seed: int = 0,
    orbits: bool = False,
) -> SaturationReport:
    """Verify freeness, then check that missing k-sets create new Berge
    copies of ``f``.  Full mode (the default) checks all of them.  Full and
    orbit modes raise ``ValueError`` rather than list more than
    ``MAX_VIOLATIONS`` sets, and sampled mode rather than sample more.
    ``jobs`` below 1 raises ``ValueError``; any other value leaves the work
    and the report unchanged, as every scan runs in process."""
    start = time.perf_counter()
    if not is_k_uniform(h, k):
        raise ValueError(f"hypergraph is not {k}-uniform")
    if sample is not None and orbits:
        raise ValueError("sampled and orbit modes are mutually exclusive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if sample is not None and sample < 0:
        raise ValueError("sample must be at least 0")
    if sample is not None and sample > MAX_VIOLATIONS:
        raise ValueError(f"sample {sample} exceeds the cap of {MAX_VIOLATIONS}")

    scan = _Scan(h, f, k)
    groups = scan.groups
    witness = scan.witness()
    mode = "orbits" if orbits else "full" if sample is None else "sampled"
    reduction = None
    if mode == "sampled":
        ksets = _sample_missing(h, k, sample, seed)
        checked = len(ksets)
        violations_sat = [t for t in ksets if not scan.creates_new(t)]
    else:
        violations_sat = _expand(scan.first(), groups, least=orbits)
        if orbits:
            # a class meeting an edge lies inside it: each edge is one multiset
            checked = _count_class_multisets(groups[0], k) - len(h.edges)
            reduction = count_missing_edges(h, k) / checked if checked else None
        else:
            checked = count_missing_edges(h, k)

    return SaturationReport(
        is_free=witness is None,
        violations_free=[] if witness is None else [witness],
        checked_missing=checked,
        violations_sat=violations_sat,
        mode=mode,
        elapsed=time.perf_counter() - start,
        sample_count=sample,  # None unless sampled
        sample_seed=None if sample is None else seed,
        reduction_factor=reduction,
    )
