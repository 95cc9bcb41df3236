"""Freeness and saturation verification.

The verifier treats the hypergraph as opaque.  Full mode decides every
missing k-set and is the only mode that certifies saturation.  Sampled mode
probes a seeded uniform sample of missing k-sets.  Orbit mode checks one
missing k-set per multiset of twin classes -- a sanity pass that is not a
certificate.

Every mode, and greedy completion (``oracle.greedy_saturate``), decides a
missing set with one helper, ``_creates_new``.  A missing set t creates a
new Berge copy iff some pair {a, b} inside t does as a bare 2-edge: the
pattern edge assigned to t has its core images in t, and swapping t for any
set through a and b that is not an edge keeps the copy valid.  So a probe's
witness proves the core images of t's pattern edge a good pair, and a probe
that fails proves every pair inside t bad.  A missing set with a pair known
good, or with every pair known bad, needs no probe; any other set is probed,
so the answers are exact.

Pairs are known by twin class.  Two vertices are twins when they lie in
exactly the same edges, so swapping them maps every edge to itself: an
automorphism of the host, which carries each Berge copy of h + {a, b} to one
of h + {a', b'}.  Hence {a, b} is good iff the pair of the least members of
their classes is, or, for twins a and b, iff the two least members of
their class are: one memo entry per pair of classes decides all of its
pairs.  Full mode extends a lexicographic prefix only while none of its
pairs is known good, so it never walks the k-sets through a good pair.
Orbit mode runs the same scan over the least member of each class multiset,
whose members are automorphic: a vertex joins a prefix only if the prefix
holds its previous twin or it has none.  Violations come in multiset order.
Greedy completion grows its host, which can part twins, so it keys pairs by
vertex; adding edges keeps every copy, so a good pair stays good, while a
bad mark is dropped as soon as its k-set is added.

Missing-edge checks are pure, so they fan out over at most one worker
process per CPU, started by the platform's default method, and merge
deterministically: the report is identical for any worker count.  Each
worker keeps its own memo and returns only the violations of its task, in
order.  Its state is kept per thread, so concurrent calls in one process do
not share it.  The count of checked sets is known without the scan:
C(n, k) - |E| in full mode, the sample size in sampled mode, and in orbit
mode the number of class multisets less |E|, as a class meeting an edge lies
inside it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import random
import threading
import time
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from math import comb

from . import engine
from .core import Graph, Hypergraph, count_missing_edges, is_k_uniform
from .engine import BergeWitness
from .invariants import make_clique

Edge = tuple[int, ...]

_LIST_CHUNK = 20_000  # sampled k-sets per work unit


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
    it create a new Berge clique on ``ell`` vertices?"""
    failures = _run_tasks(h, make_clique(ell), 2, _scan_first, range(h.n), 1)
    checked = count_missing_edges(h, 2)
    return PairGoodnessReport(checked=checked, good=checked - len(failures),
                              failures=failures)


def all_cores_present(h: Hypergraph, ell: int) -> engine.CoreCoverageReport:
    """Every (ell-1)-subset of vertices must be the core set of a Berge
    clique on ell-1 vertices."""
    return engine.all_subsets_are_cores(h, ell - 1)


# ---------------------------------------------------------------------------
# lexicographic rank arithmetic for k-subsets of [0, n)


def _rank_kset(t: Edge, n: int) -> int:
    # the k-sets after t: C(n - 1 - v, k - i) agree with t before position i, exceed v there
    k = len(t)
    return comb(n, k) - 1 - sum(comb(n - 1 - v, k - i) for i, v in enumerate(t))


def _unrank_kset(n: int, k: int, rank: int) -> list[int]:
    out = []
    v = 0
    for i in range(k):
        while rank >= comb(n - v - 1, k - i - 1):
            rank -= comb(n - v - 1, k - i - 1)
            v += 1
        out.append(v)
        v += 1
    return out


# ---------------------------------------------------------------------------
# worker machinery (module level so pool workers can reach it)

_work = threading.local()  # one scan's state per thread, so concurrent calls stay apart


def _init_worker(h: Hypergraph, f: Graph, k: int, orbits: bool) -> None:
    _work.index = engine._Index(h)
    _work.pattern = engine._Pattern(f)
    _work.k = k
    _work.cls = _twin_classes(h)
    # orbit mode walks least members only; -1 lets full mode take any vertex
    _work.prev = _previous_twins(_work.cls) if orbits else [-1] * h.n
    _work.good = set()  # class keys of pairs known good
    _work.bad = set()  # class keys of pairs known bad


def _creates_new(index, pattern, cls: list[int], good: set, bad: set, t: Edge) -> bool:
    """Does adding the missing set ``t`` to the indexed host create a new
    Berge copy?

    The class key of a pair {a, b} is the sorted pair of the classes
    ``cls[a]`` and ``cls[b]``; ``good`` and ``bad`` hold the keys of pairs
    known good and known bad.  ``t`` is answered without a probe when one of
    its pairs is known good, or when all of them are known bad.  Otherwise
    it is probed once: a witness marks good the key of the core images of
    the pattern edge it assigns to ``t``, and a failure marks bad the key of
    every pair of ``t``.
    """
    keys = list(itertools.combinations(sorted(map(cls.__getitem__, t)), 2))
    if not good.isdisjoint(keys):
        return True
    if bad.issuperset(keys):
        return False
    w = engine._search(index, pattern, required_edge=t)
    if w is None:
        bad.update(keys)
        return False
    x, y = next(fe for fe, e in w.edge_map.items() if e == t)
    ca, cb = cls[w.core_map[x]], cls[w.core_map[y]]
    good.add((ca, cb) if ca <= cb else (cb, ca))
    return True


def _scan_list(ksets: Iterable[Edge]) -> list[Edge]:
    """The missing k-sets, in order, that create no new Berge copy."""
    index, pattern, cls, good, bad = _work.index, _work.pattern, _work.cls, _work.good, _work.bad
    return [t for t in ksets if not _creates_new(index, pattern, cls, good, bad, t)]


def _scan_first(u: int) -> list[Edge]:
    """The missing k-sets whose least vertex is ``u`` and that create no new
    Berge copy, in lexicographic order; in orbit mode only least members of
    their class multisets.

    A prefix is extended only while none of its pairs is known good: every
    k-set through a good pair creates a new copy.
    """
    index, pattern, k = _work.index, _work.pattern, _work.k
    cls, prev, good, bad = _work.cls, _work.prev, _work.good, _work.bad
    present, n = index.id_of, index.n
    out: list[Edge] = []

    def known_good(ca: int, cb: int) -> bool:
        return ((ca, cb) if ca <= cb else (cb, ca)) in good

    def grow(t: Edge) -> None:
        if len(t) == k:
            if t not in present and not _creates_new(index, pattern, cls, good, bad, t):
                out.append(t)
            return
        classes = [cls[v] for v in t]
        for v in range(t[-1] + 1, n - k + len(t) + 1):
            if prev[v] >= 0 and prev[v] not in t:
                continue  # its previous twin is missing: not a least member
            cv = cls[v]
            if any(known_good(c, cv) for c in classes):
                continue
            grow(t + (v,))
            # a witness below may have proved a pair of t itself good
            if any(known_good(ca, cb) for ca, cb in itertools.combinations(classes, 2)):
                return

    grow((u,))
    return out


def _run_tasks(h, f, k, worker, tasks, jobs, orbits=False) -> list[Edge]:
    """Run ``worker`` over ``tasks`` and merge the violations in task order."""
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        _init_worker(h, f, k, orbits)
        results = [worker(t) for t in tasks]
    else:
        ctx = multiprocessing.get_context(None)  # the platform's default method
        with ctx.Pool(workers, initializer=_init_worker, initargs=(h, f, k, orbits)) as pool:
            results = pool.map(worker, tasks)
    return [t for v in results for t in v]


# ---------------------------------------------------------------------------
# twin classes


def _twin_classes(h: Hypergraph) -> list[int]:
    """The twin class of each vertex, numbered in order of least vertex.

    Twins lie in exactly the same edges (each dominates the other), so
    swapping two of them maps every edge to itself: an automorphism of h.
    """
    incident: list[list[int]] = [[] for _ in range(h.n)]
    for eid, e in enumerate(h.edges):
        for v in e:
            incident[v].append(eid)
    ids: dict[tuple[int, ...], int] = {}
    return [ids.setdefault(tuple(inc), len(ids)) for inc in incident]


def _previous_twins(cls: list[int]) -> list[int]:
    """The previous member of each vertex's twin class, or -1 for the first."""
    prev, last = [-1] * len(cls), {}
    for v, c in enumerate(cls):
        prev[v], last[c] = last.get(c, -1), v
    return prev


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
    """
    total = count_missing_edges(h, k)
    existing = sorted(_rank_kset(e, h.n) for e in h.edges if len(e) == k)
    rng = random.Random(seed)
    picks = sorted(rng.sample(range(total), min(count, total)))
    out: list[Edge] = []
    j = 0
    for i in picks:
        while j < len(existing) and existing[j] <= i + j:
            j += 1
        out.append(tuple(_unrank_kset(h.n, k, i + j)))
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
    copies of ``f``.  Full mode (the default) checks all of them."""
    start = time.perf_counter()
    if not is_k_uniform(h, k):
        raise ValueError(f"hypergraph is not {k}-uniform")
    if sample is not None and orbits:
        raise ValueError("sampled and orbit modes are mutually exclusive")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")

    free, witness = is_berge_free(h, f)
    mode = "orbits" if orbits else "full" if sample is None else "sampled"
    reduction = None
    if mode == "orbits":
        cls = _twin_classes(h)
        checked = _count_class_multisets(cls, k) - len(h.edges)
        reduction = count_missing_edges(h, k) / checked if checked else None
        heads = [v for v, p in enumerate(_previous_twins(cls)) if p < 0]
        found = _run_tasks(h, f, k, _scan_first, heads, jobs, orbits=True)
        violations_sat = sorted(found, key=lambda t: sorted(map(cls.__getitem__, t)))
    elif mode == "sampled":
        ksets = _sample_missing(h, k, sample, seed)
        checked = len(ksets)
        tasks = [ksets[i: i + _LIST_CHUNK] for i in range(0, len(ksets), _LIST_CHUNK)]
        violations_sat = _run_tasks(h, f, k, _scan_list, tasks, jobs)
    else:
        checked = count_missing_edges(h, k)
        violations_sat = _run_tasks(h, f, k, _scan_first, range(h.n), jobs)

    return SaturationReport(
        is_free=free,
        violations_free=[] if free else [witness],
        checked_missing=checked,
        violations_sat=violations_sat,
        mode=mode,
        elapsed=time.perf_counter() - start,
        sample_count=sample,  # None unless sampled
        sample_seed=None if sample is None else seed,
        reduction_factor=reduction,
    )
