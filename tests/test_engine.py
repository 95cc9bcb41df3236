import hashlib
import itertools
import random
import time

import pytest

from bergesat import engine, saturation
from bergesat.core import Graph, Hypergraph, add_edge, dominates, missing_edges
from bergesat.constructions import build_c_k_4, build_c_k_ell, build_s
from bergesat.engine import (
    BergeWitness,
    SearchConstraints,
    contains_berge,
    creates_new_berge,
    find_berge_witness,
    is_ell_good,
    validate_witness,
)
from bergesat.invariants import make_clique, make_cycle, make_path, make_star
from bergesat.oracle import berge_oracle, greedy_saturate

from conftest import (
    hypergraph_with_dominated_pair,
    k4_minus_edge,
    random_hypergraph,
    small_patterns,
)

K3 = make_clique(3)
K4 = make_clique(4)
# small_patterns plus a pattern with an isolated vertex (minimum degree 0)
# and a star (mixed degrees), the shapes the search's degree filter must handle
DEGREE_SHAPES = small_patterns() + [Graph(3, ((0, 1),)), make_star(4)]


@pytest.fixture(scope="module")
def tight_cycle():
    return build_c_k_4(3)[0]


class TestFindWitness:
    def test_triangle_with_required_core(self, tight_cycle):
        w = find_berge_witness(K3, tight_cycle, SearchConstraints(required_core={0, 1, 2}))
        assert w is not None
        validate_witness(K3, tight_cycle, w)
        assert sorted(w.core_map.values()) == [0, 1, 2]

    def test_explicit_tight_cycle_triangle_map_is_valid(self, tight_cycle):
        # the hand-written assignment for core {0,1,2}
        w = BergeWitness(
            core_map={0: 0, 1: 1, 2: 2},
            edge_map={(0, 1): (0, 1, 4), (0, 2): (0, 1, 2), (1, 2): (1, 2, 3)},
        )
        validate_witness(K3, tight_cycle, w)

    def test_single_edge_pattern(self):
        h = Hypergraph(5, ((1, 2, 4),))
        w = find_berge_witness(make_clique(2), h, SearchConstraints(required_core={2, 4}))
        assert w is not None and w.edge_map[(0, 1)] == (1, 2, 4)

    def test_pigeonhole_failure(self):
        h = Hypergraph(6, ((0, 1, 2), (3, 4, 5)))
        assert find_berge_witness(K3, h) is None

    def test_forbidden_core_respected(self, tight_cycle):
        w = find_berge_witness(K3, tight_cycle, SearchConstraints(forbidden_core={0}))
        assert w is not None and 0 not in w.core_map.values()

    def test_required_edge_respected(self, tight_cycle):
        target = (1, 2, 3)
        w = find_berge_witness(K3, tight_cycle, SearchConstraints(required_edge=target))
        assert w is not None and target in w.edge_map.values()

    def test_unsatisfiable_constraints_yield_none(self, tight_cycle):
        assert find_berge_witness(
            K3, tight_cycle, SearchConstraints(required_edge=(0, 1, 3))
        ) is None  # not an edge
        assert find_berge_witness(
            make_clique(5), tight_cycle, SearchConstraints(required_core={0, 1, 2, 3, 4})
        ) is None  # would need 10 edges
        assert find_berge_witness(
            K3, tight_cycle, SearchConstraints(required_core={0, 1, 2, 3})
        ) is None  # more required vertices than the pattern has

    @pytest.mark.parametrize("c", [
        SearchConstraints(required_core={5}),
        SearchConstraints(required_core={-1}),
        SearchConstraints(forbidden_core={99}),
        SearchConstraints(required_edge=(1, 1, 2)),
        SearchConstraints(required_edge=(3,)),
        SearchConstraints(required_edge=(3, 5)),
    ])
    def test_malformed_constraints_rejected(self, tight_cycle, c):
        with pytest.raises(ValueError):
            find_berge_witness(K3, tight_cycle, c)

    def test_overlapping_constraints_rejected(self):
        with pytest.raises(ValueError):
            SearchConstraints(required_core={1}, forbidden_core={1})

    def test_pattern_larger_than_host(self):
        assert find_berge_witness(K4, Hypergraph(3, ((0, 1, 2),))) is None


class TestContains:
    def test_tight_cycle_has_triangle(self, tight_cycle):
        assert contains_berge(K3, tight_cycle)

    def test_tight_cycle_has_no_k4(self, tight_cycle):
        assert not contains_berge(K4, tight_cycle)

    def test_empty_host(self):
        assert not contains_berge(make_clique(2), Hypergraph(4, ()))

    def test_apex_family_is_k4_free(self):
        s, _, _ = build_s(20, 3, 4)
        assert not contains_berge(K4, s)


class TestCreatesNew:
    def test_tight_cycle_pair_probe(self, tight_cycle):
        assert creates_new_berge(tight_cycle, (0, 1), K4)

    def test_empty_host_cannot(self):
        assert not creates_new_berge(Hypergraph(4, ()), (0, 1, 2), K3)

    def test_existing_edge_rejected(self, tight_cycle):
        with pytest.raises(ValueError):
            creates_new_berge(tight_cycle, (2, 1, 0), K4)

    def test_apex_family_missing_triples(self):
        s, _, _ = build_s(20, 3, 4)
        for e in itertools.islice(missing_edges(s, 3), 25):
            assert creates_new_berge(s, e, K4)


class TestEllGood:
    def test_tight_cycle_pairs(self, tight_cycle):
        assert is_ell_good(tight_cycle, 0, 2, 4)

    def test_larger_seed_family(self):
        c35, _ = build_c_k_ell(3, 5)
        assert all(
            is_ell_good(c35, u, v, 5) for u, v in itertools.combinations(range(c35.n), 2)
        )

    def test_single_edge_family_fails(self):
        h = Hypergraph(4, ((0, 1, 2),))
        assert not is_ell_good(h, 0, 3, 4)

    def test_existing_pair_rejected(self):
        h = Hypergraph(4, ((0, 1, 2), (0, 1)))
        with pytest.raises(ValueError):
            is_ell_good(h, 0, 1, 3)

    def test_repeated_vertex_rejected(self, tight_cycle):
        with pytest.raises(ValueError, match="repeats a vertex"):
            is_ell_good(tight_cycle, 2, 2, 4)

    @pytest.mark.parametrize("u, v", [(0, 5), (-1, 2)])
    def test_out_of_range_pair_rejected(self, tight_cycle, u, v):
        with pytest.raises(ValueError, match="out of range for n=5"):
            is_ell_good(tight_cycle, u, v, 4)


class TestSoundnessAndAgreement:
    def test_witnesses_validate_on_random_corpus(self):
        rng = random.Random(7)
        found = 0
        for _ in range(120):
            h = random_hypergraph(rng)
            f = rng.choice(DEGREE_SHAPES)
            w = find_berge_witness(f, h)
            if w is not None:
                validate_witness(f, h, w)
                found += 1
        assert found > 20

    def test_agreement_with_exhaustive_oracle(self):
        rng = random.Random(13)
        for _ in range(120):
            h = random_hypergraph(rng)
            f = rng.choice(DEGREE_SHAPES)
            assert contains_berge(f, h) == berge_oracle(f, h)

    def test_virtual_probe_matches_materialized_host(self):
        # the in-place probe and an actual H+e search must always agree
        rng = random.Random(77)
        for _ in range(80):
            h = random_hypergraph(rng)
            f = rng.choice(small_patterns())
            e = next(iter(missing_edges(h, 3)), None) if h.n >= 3 else None
            if e is None:
                continue
            probe = creates_new_berge(h, e, f)
            direct = find_berge_witness(
                f, add_edge(h, e), SearchConstraints(required_edge=e)
            )
            assert probe == (direct is not None)

    def test_monotone_under_edge_addition(self):
        rng = random.Random(29)
        for _ in range(60):
            h = random_hypergraph(rng)
            f = rng.choice(small_patterns())
            if not contains_berge(f, h):
                continue
            for e in itertools.islice(missing_edges(h, 3), 3):
                assert contains_berge(f, add_edge(h, e))


K23 = Graph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)))
PRUNED_SHAPES = [make_path(4), make_cycle(4), make_cycle(5), make_star(3),
                 k4_minus_edge(), K23]


def _count(monkeypatch, name):
    """Count calls to the matcher method ``name`` from here on."""
    calls = [0]
    real = getattr(engine._Matcher, name)

    def counting(self, *args):
        calls[0] += 1
        return real(self, *args)

    monkeypatch.setattr(engine._Matcher, name, counting)
    return calls


class TestRequiredEdgePrune:
    """The required-edge prune and the lazy matcher snapshot only skip
    branches that cannot change the answer, and they do skip them."""

    def test_probes_match_oracle_on_free_hosts(self):
        rng = random.Random(503)
        verdicts = {True: 0, False: 0}
        for _ in range(160):
            h = random_hypergraph(rng, max_vertices=7, max_edges=6, max_edge_size=3)
            f = rng.choice(PRUNED_SHAPES)
            if contains_berge(f, h):
                continue
            present = h.edge_set()
            for _ in range(3):
                t = tuple(sorted(rng.sample(range(h.n), rng.randint(2, min(4, h.n)))))
                if t in present:
                    continue
                probe = creates_new_berge(h, t, f)
                assert probe == berge_oracle(f, add_edge(h, t)), (h, t, f.edges)
                verdicts[probe] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20

    def test_prune_cuts_path_probes(self, monkeypatch):
        # these 20 probes make 60 pushes, 126 when a position also tries the
        # vertices outside the edge that the next level rejects, and 20,130
        # without the prune
        h = build_s(40, 3, 4)[0]
        index = engine._Index(h)
        pattern = engine._Pattern(make_path(4))
        probes = list(itertools.islice(missing_edges(h, 3), 0, 4000, 200))
        pushes = _count(monkeypatch, "push")
        found = [engine._search(index, pattern, required_edge=t) for t in probes]
        assert all(found)
        assert pushes[0] < 1000

    def test_candidates_outside_the_edge_skipped_where_the_next_level_gives_up(
            self, monkeypatch):
        # these 42 probes make 533 pushes, and 817 when a position tries
        # vertices outside the required edge that the next level rejects
        h = build_s(40, 3, 4)[0]
        index = engine._Index(h)
        pattern = engine._Pattern(K4)
        probes = list(itertools.islice(missing_edges(h, 3), 0, 4000, 97))
        pushes = _count(monkeypatch, "push")
        found = [engine._search(index, pattern, required_edge=t) for t in probes]
        assert all(found)
        assert pushes[0] < 650

    def test_snapshot_taken_only_before_a_push(self, monkeypatch):
        # clique probes and plain searches, which the prune does not touch:
        # 629 snapshots, 682 when a clique's positions run past the last
        # vertices of the probed edge that leave enough of them, and 1,957
        # with one snapshot per candidate
        snapshots = _count(monkeypatch, "snapshot")
        rng = random.Random(5)
        found = 0
        for _ in range(40):
            h = random_hypergraph(rng, max_vertices=12, max_edges=8, max_edge_size=3)
            index = engine._Index(h)
            for f, probes in ((K3, 5), (K4, 5), (make_cycle(4), 0)):
                pattern = engine._Pattern(f)
                found += engine._search(index, pattern) is not None
                for t in itertools.islice(missing_edges(h, 3), probes):
                    found += engine._search(index, pattern, required_edge=t) is not None
        assert found == 106
        assert snapshots[0] < 660


def _distinct_choice(choices, used=frozenset()):
    """Whether one member of each list in ``choices`` can be picked, no
    member twice."""
    if not choices:
        return True
    return any(_distinct_choice(choices[1:], used | {e}) for e in choices[0] if e not in used)


def _brute_force_contains(f, h, required, forbidden, edge=None):
    """Some injection of V(f) covering ``required`` and avoiding ``forbidden``
    gives the pattern edges distinct containing hyperedges, ``edge`` among
    them when given."""
    allowed = [v for v in range(h.n) if v not in forbidden]
    for image in itertools.permutations(allowed, f.n):
        if not required <= set(image):
            continue
        choices = [[e for e in h.edges if image[x] in e and image[y] in e] for x, y in f.edges]
        if edge is None and _distinct_choice(choices):
            return True
        if edge is not None and any(edge in c and _distinct_choice(choices[:d] + choices[d + 1:], {edge})
                                    for d, c in enumerate(choices)):
            return True
    return False


class TestRequiredCorePrune:
    """The required-core look-ahead skips only placements that can no longer
    cover a required vertex, and it does skip them."""

    def test_constrained_search_matches_brute_force(self):
        rng = random.Random(911)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            h = random_hypergraph(rng, max_vertices=6, max_edges=8, max_edge_size=4)
            f = rng.choice(small_patterns() + [make_cycle(5), K23])
            required = frozenset(rng.sample(range(h.n), rng.randint(1, 3)))
            rest = [v for v in range(h.n) if v not in required]
            for forbidden in (frozenset(), frozenset(rng.sample(rest, min(len(rest), 1)))):
                c = SearchConstraints(required_core=required, forbidden_core=forbidden)
                w = find_berge_witness(f, h, c)
                assert (w is not None) == _brute_force_contains(f, h, required, forbidden), (
                    h, f.edges, c)
                if w is not None:
                    validate_witness(f, h, w)
                    image = set(w.core_map.values())
                    assert required <= image and not forbidden & image
                verdicts[w is not None] += 1
        assert verdicts[True] > 40 and verdicts[False] > 40

    def test_virtual_probe_with_required_core_matches_materialized_host(self):
        # a required vertex may reach a placed neighbour only through the
        # virtual edge
        rng = random.Random(419)
        verdicts = {True: 0, False: 0}
        for _ in range(150):
            h = random_hypergraph(rng, max_vertices=7, max_edges=8, max_edge_size=3)
            f = rng.choice(small_patterns() + [make_cycle(5)])
            t = tuple(sorted(rng.sample(range(h.n), rng.randint(2, min(4, h.n)))))
            if t in h.edge_set():
                continue
            required = frozenset(rng.sample(t, 1) + rng.sample(range(h.n), rng.randint(0, 1)))
            probe = engine._search(
                engine._Index(h), engine._Pattern(f), required_core=required, required_edge=t
            )
            direct = find_berge_witness(
                f, add_edge(h, t), SearchConstraints(required_core=required, required_edge=t)
            )
            assert (probe is None) == (direct is None), (h, t, f.edges, required)
            verdicts[probe is not None] += 1
        assert verdicts[True] > 20 and verdicts[False] > 20

    def test_look_ahead_cuts_required_pair_queries(self, monkeypatch):
        # these 42 queries make 4,940 pushes; 21,449 without the lex-leader
        # bounds, and 53,236 without the look-ahead as well
        h = build_s(20, 3, 4)[0]
        pushes = _count(monkeypatch, "push")
        found = 0
        for f in (make_cycle(5), K23):
            for pair in itertools.combinations(range(0, 20, 3), 2):
                c = SearchConstraints(required_core=frozenset(pair))
                found += find_berge_witness(f, h, c) is not None
        assert found == 36
        assert pushes[0] < 8000


CUT_SHAPES = [K3, K4, make_clique(5), make_cycle(4), make_cycle(5)]


def _listing(monkeypatch, mode):
    """Make every search node list the common neighbours of its placed
    neighbours' images ("all"), or scan the host at every node ("none": a
    count times infinity is never below a position, and 0 times it is nan)."""
    monkeypatch.setattr(engine, "_LIST_FACTOR", {"all": 0, "none": float("inf")}[mode])


def _sparse_hypergraph(rng, n):
    """About n random triples and pairs on n vertices, plus two hubs in a
    third of the triples: most vertices share a hyperedge with few others,
    so a search lists their neighbours, and scans after placing a hub."""
    edges = {tuple(sorted(rng.sample(range(n), rng.choice((2, 3, 3))))) for _ in range(n)}
    for hub in (0, 1):
        for _ in range(n // 3):
            edges.add(tuple(sorted({hub, *rng.sample(range(2, n), 2)})))
    return Hypergraph(n, tuple(sorted(edges)))


class TestNeighbourLists:
    """A node that lists the common neighbours of its placed neighbours'
    images visits exactly the candidates a scan pushes, in the same order,
    and a complete pattern's positions stop where too few vertices of the
    required edge are left; neither changes an answer or a witness."""

    @pytest.mark.parametrize("mode", ["all", "none"])
    def test_searches_match_brute_force(self, monkeypatch, mode):
        _listing(monkeypatch, mode)
        rng = random.Random(2417)
        verdicts = {True: 0, False: 0}
        for _ in range(120):
            h = random_hypergraph(rng, max_vertices=7, max_edges=8, max_edge_size=3)
            f = rng.choice(CUT_SHAPES)
            required = frozenset(rng.sample(range(h.n), rng.randint(1, 2)))
            forbidden = frozenset(rng.sample([v for v in range(h.n) if v not in required], 1))
            kinds = [SearchConstraints(), SearchConstraints(required_core=required),
                     SearchConstraints(forbidden_core=forbidden)]
            kinds += [SearchConstraints(required_edge=e) for e in rng.sample(h.edges, min(2, len(h.edges)))]
            for c in kinds:
                w = find_berge_witness(f, h, c)
                expected = _brute_force_contains(f, h, c.required_core, c.forbidden_core, c.required_edge)
                assert (w is not None) == expected, (h, f.edges, c)
                if w is not None:
                    validate_witness(f, h, w)
                    image = set(w.core_map.values())
                    assert c.required_core <= image and not c.forbidden_core & image
                    assert c.required_edge is None or c.required_edge in w.edge_map.values()
                verdicts[expected] += 1
            if len(f.edges) <= 6:
                assert contains_berge(f, h) == berge_oracle(f, h)
            t = tuple(sorted(rng.sample(range(h.n), rng.randint(2, min(4, h.n)))))
            if t not in h.edge_set():
                probe = creates_new_berge(h, t, f)
                g = add_edge(h, t)
                assert probe == _brute_force_contains(f, g, frozenset(), frozenset(), t), (h, t, f.edges)
                if len(f.edges) <= 6 and not berge_oracle(f, h):
                    assert probe == berge_oracle(f, g)
                verdicts[probe] += 1
        assert verdicts[True] > 100 and verdicts[False] > 100

    def test_listing_and_scanning_give_identical_witnesses(self, monkeypatch):
        # hosts of 32 to 60 vertices, where the default lists at sparse
        # nodes and scans at the others
        patterns = CUT_SHAPES + [K23, make_path(4), make_star(3)]
        prepared = [engine._Pattern(f) for f in patterns]
        outputs = {}
        verdicts = {True: 0, False: 0}
        for mode in ("none", "all", None):
            if mode is None:
                monkeypatch.undo()
            else:
                _listing(monkeypatch, mode)
            draw = random.Random(3307)  # the same hosts and constraints each time
            outputs[mode] = out = []
            for _ in range(16):
                h = _sparse_hypergraph(draw, draw.randint(32, 60))
                index = engine._Index(h)
                for pattern in prepared:
                    req = frozenset(draw.sample(range(h.n), draw.randint(0, 2)))
                    forb = frozenset(draw.sample(range(h.n), draw.randint(0, 2))) - req
                    t = tuple(sorted(draw.sample(range(h.n), 3)))
                    for edge in (None, draw.choice(h.edges), t):
                        for r, fb in ((frozenset(), frozenset()), (req, frozenset()), (frozenset(), forb)):
                            w = engine._search(index, pattern, r, fb, edge)
                            out.append(w and w.serialize())
                            verdicts[w is not None] += mode is None
        assert outputs["none"] == outputs["all"] == outputs[None]
        assert verdicts[True] > 300 and verdicts[False] > 300


def _automorphisms(f):
    """Every automorphism of ``f``, as a tuple of images: each vertex in
    turn takes every image that keeps adjacency and non-adjacency with the
    vertices mapped before it."""
    adj = f.adjacency()
    found = []

    def extend(g):
        v = len(g)
        if v == f.n:
            found.append(tuple(g))
            return
        for w in range(f.n):
            if w not in g and all((u in adj[v]) == (g[u] in adj[w]) for u in range(v)):
                extend(g + [w])

    extend([])
    return found


def _brute_force_bounds(f, order):
    """less[i] before reduction: the earlier positions j whose vertex some
    automorphism fixing the vertices at positions 0..j-1 maps onto the
    vertex at position i."""
    auts = _automorphisms(f)
    return [[j for j in range(i)
             if any(g[order[j]] == order[i] and all(g[order[m]] == order[m] for m in range(j))
                    for g in auts)]
            for i in range(f.n)]


def _all_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph(n, tuple(p for b, p in enumerate(pairs) if mask >> b & 1))


K33 = Graph(6, tuple((a, b) for a in range(3) for b in range(3, 6)))
# a triangle with tails of lengths 2 and 1: only the identity maps it to itself
ASYMMETRIC = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (2, 4)))
# 2-regular, so colour refinement keeps one cell, yet no automorphism maps
# the triangle onto the square
C3_C4 = Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)))
# the Frucht graph: 3-regular with only the identity automorphism, so each
# candidate mapping needs its edge check
FRUCHT = Graph(12, tuple({tuple(sorted((i, (i + d) % 12)))
                          for i, d in enumerate((-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2))}
                         | {(i, i + 1) for i in range(11)} | {(0, 11)}))
SYMMETRIC_SHAPES = [
    make_cycle(4), make_cycle(5), make_cycle(6), K23, K33, make_path(5), k4_minus_edge(),
    make_star(4), Graph(4, ((0, 1), (2, 3))), Graph(3), ASYMMETRIC, C3_C4,
]


class TestLexLeaderBounds:
    """``_lex_leader_bounds`` returns only pairs proved by an automorphism,
    and on small patterns every pair there is; ``_Pattern.less`` keeps the
    latest bound of each position, which implies the others."""

    @staticmethod
    def _check(f):
        pattern = engine._Pattern(f)
        bounds = _brute_force_bounds(f, pattern.order)
        assert engine._lex_leader_bounds(f, pattern.order) == bounds, f.edges
        # the closure below each position, from all the pairs
        below = [set() for _ in range(f.n)]
        for i, bound in enumerate(bounds):
            for j in bound:
                below[i] |= below[j] | {j}
        for i, bound in enumerate(bounds):
            implied = set().union(*(below[j] for j in bound))
            assert [j for j in bound if j not in implied] == bound[-1:], f.edges
            assert pattern.less[i] == max(bound, default=-1)
            assert pattern.above[i] == sum(i in below[k] for k in range(i + 1, f.n))

    @pytest.mark.parametrize("f", SYMMETRIC_SHAPES + [K4, make_clique(5), FRUCHT])
    def test_named_patterns_match_brute_force(self, f):
        self._check(f)

    def test_every_graph_on_five_vertices_matches_brute_force(self):
        for f in _all_graphs(5):
            self._check(f)

    def test_shapes_of_the_bounds(self):
        assert len(_automorphisms(ASYMMETRIC)) == len(_automorphisms(FRUCHT)) == 1
        assert set(FRUCHT.degrees()) == {3}
        assert engine._Pattern(ASYMMETRIC).less == [-1] * 6
        # a clique's core sets are unordered: each position follows the last
        assert engine._Pattern(make_clique(5)).less == [-1, 0, 1, 2, 3]
        assert engine._Pattern(Graph(3)).less == [-1, 0, 1]
        # C5: the vertex at position 0 maps anywhere; then one reflection is left
        assert engine._Pattern(make_cycle(5)).less == [-1, 0, 0, 0, 1]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_clique_bounds_are_those_the_search_finds(self, n):
        f = make_clique(n)
        pattern = engine._Pattern(f)
        bounds = engine._lex_leader_bounds(f, pattern.order)
        assert pattern.less == [max(bound, default=-1) for bound in bounds]
        assert pattern.above == [n - 1 - i for i in range(n)]

    def test_clique_bounds_need_no_symmetry_search(self, monkeypatch):
        calls = []
        for name in ("_automorphism", "_refine"):
            monkeypatch.setattr(engine, name, lambda *args, name=name: calls.append(name))
        pattern = engine._Pattern(make_clique(300))
        assert pattern.less == list(range(-1, 299)) and not calls

    def test_search_without_bounds_gives_identical_witnesses(self):
        # the lex-leader bounds keep the least valid placement, so every
        # witness and verdict matches a search with the bounds left out
        rng = random.Random(1301)
        patterns = CORPUS_PATTERNS + SYMMETRIC_SHAPES
        pruned = [engine._Pattern(f) for f in patterns]
        plain = [engine._Pattern(f) for f in patterns]
        for p in plain:
            p.less, p.above = [-1] * p.nf, [0] * p.nf
        verdicts = {True: 0, False: 0}
        for _ in range(90):
            h = random_hypergraph(rng, max_vertices=9, max_edges=10)
            index = engine._Index(h)
            present = h.edge_set()
            for f, a, b in zip(patterns, pruned, plain):
                req = frozenset(rng.sample(range(h.n), rng.randint(0, 2)))
                forb = frozenset(rng.sample(range(h.n), rng.randint(0, 2))) - req
                edges = [rng.choice(h.edges)] if h.edges else []
                t = tuple(sorted(rng.sample(range(h.n), rng.randint(2, min(4, h.n)))))
                if t not in present:
                    edges.append(t)  # a virtual probe
                for edge in [None] + edges:
                    for r, fb in ((req, frozenset()), (frozenset(), forb), (req, forb)):
                        wa = engine._search(index, a, r, fb, edge)
                        wb = engine._search(index, b, r, fb, edge)
                        assert (wa and wa.serialize()) == (wb and wb.serialize()), (
                            h, f.edges, r, fb, edge)
                        verdicts[wa is not None] += 1
        assert verdicts[True] > 2000 and verdicts[False] > 2000

    @pytest.mark.parametrize("f", [make_path(400), Graph(400)])
    def test_large_pattern_prepares_in_bounded_time(self, f):
        host = Hypergraph(400, tuple((i, i + 1) for i in range(399)))
        engine._prepared.cache_clear()
        start = time.perf_counter()
        w = find_berge_witness(f, host)
        assert time.perf_counter() - start < 2.0
        validate_witness(f, host, w)

    def test_each_pattern_is_prepared_once(self, monkeypatch):
        built = []

        class Counted(engine._Pattern):
            __slots__ = ()

            def __init__(self, f):
                built.append(f)
                super().__init__(f)

        monkeypatch.setattr(engine, "_Pattern", Counted)
        engine._prepared.cache_clear()
        c5 = make_cycle(5)
        h = build_s(20, 3, 4)[0]
        tight = build_c_k_4(3)[0]
        for _ in range(2):
            find_berge_witness(c5, h)
            creates_new_berge(h, next(iter(missing_edges(h, 3))), c5)
            saturation.all_subsets_are_cores(tight, 3)
            saturation.is_saturated(tight, c5, 3)
            saturation.is_saturated(tight, c5, 3, orbits=True)
            greedy_saturate(Hypergraph(7, ()), c5, 3)
        assert built == [c5, K3]
        engine._prepared.cache_clear()


class TestIndexGrowth:
    """An index grown edge by edge with ``add`` is the index of the grown
    host, and its cached candidate lists follow the new degrees."""

    def test_add_matches_a_fresh_build(self):
        rng = random.Random(61)
        hosts = [build_s(21, 3, 4)[0]] + [
            random_hypergraph(rng, max_vertices=10, max_edges=12) for _ in range(30)
        ]
        changed = 0
        for h in hosts:
            grown = engine._Index(Hypergraph(h.n, ()))
            for i, e in enumerate(h.edges):
                stale = [grown.candidates(need) for need in range(4)]
                grown.add(e)
                fresh = engine._Index(Hypergraph(h.n, h.edges[: i + 1]))
                after = [grown.candidates(need) for need in range(4)]
                assert after == [fresh.candidates(need) for need in range(4)]
                changed += after != stale
            built = engine._Index(h)
            for name in ("edges", "deg", "adj", "id_of"):
                assert getattr(grown, name) == getattr(built, name)
            # and against tables built here, without the index: the ids of
            # the edges through each pair, both ways round, and the
            # neighbours of each vertex
            adj = [{} for _ in range(h.n)]
            for eid, e in enumerate(h.edges):
                for a, b in itertools.permutations(e, 2):
                    adj[a].setdefault(b, []).append(eid)
            assert grown.edges == list(h.edges)
            assert grown.deg == h.degrees()
            assert grown.adj == adj
            for v in range(h.n):
                assert set(grown.adj[v]) == {w for e in h.edges if v in e for w in e} - {v}
                assert all(grown.adj[v][w] is grown.adj[w][v] for w in grown.adj[v])
            assert grown.id_of == {e: eid for eid, e in enumerate(h.edges)}
        assert changed > 100

    def test_virtual_probe_leaves_the_index_unchanged(self):
        # a probe's supply through the virtual edge is a new sequence, never
        # an extension of the index's own id list
        h = build_s(21, 3, 4)[0]
        index = engine._Index(h)
        before = [{w: list(ids) for w, ids in near.items()} for near in index.adj]
        found = 0
        for f in (K3, K4, make_cycle(4)):
            pattern = engine._Pattern(f)
            for t in itertools.islice(missing_edges(h, 3), 0, 1300, 13):
                found += engine._search(index, pattern, required_edge=t) is not None
        assert found > 50
        assert index.adj == before and len(index.edges) == len(h.edges)


class TestDominanceTransfer:
    def test_new_copy_moves_along_dominance(self):
        # with v dominated by u and a new Berge copy avoiding u as core,
        # the probe edge can be rerouted through u
        rng = random.Random(3)
        nonvacuous = 0
        for _ in range(150):
            h, u, v = hypergraph_with_dominated_pair(rng)
            assert dominates(h, u, v)
            f = rng.choice(small_patterns())
            e = _fresh_edge_through(rng, h, v)
            if e is None:
                continue
            moved = e if u in e else tuple(sorted(set(e) - {v} | {u}))
            if moved in h.edge_set():
                continue
            w = find_berge_witness(
                f, add_edge(h, e),
                SearchConstraints(forbidden_core={u}, required_edge=e),
            )
            if w is None:
                continue
            nonvacuous += 1
            assert creates_new_berge(h, moved, f)
        assert nonvacuous >= 5

    def test_core_swap_along_dominance(self):
        rng = random.Random(5)
        nonvacuous = 0
        for _ in range(150):
            h, u, v = hypergraph_with_dominated_pair(rng)
            f = rng.choice(small_patterns())
            w = find_berge_witness(
                f, h, SearchConstraints(required_core={v}, forbidden_core={u})
            )
            if w is None:
                continue
            nonvacuous += 1
            swapped = frozenset(w.core_map.values()) - {v} | {u}
            assert find_berge_witness(
                f, h, SearchConstraints(required_core=swapped)
            ) is not None
        assert nonvacuous >= 5


def _fresh_edge_through(rng, h, v):
    for _ in range(30):
        size = rng.randint(2, min(4, h.n))
        rest = rng.sample([x for x in range(h.n) if x != v], size - 1)
        e = tuple(sorted([v] + rest))
        if e not in h.edge_set():
            return e
    return None


class TestDeterminism:
    def test_same_witness_twice(self, tight_cycle):
        a = find_berge_witness(K3, tight_cycle)
        b = find_berge_witness(K3, tight_cycle)
        assert a == b

    def test_serialization_golden(self, tight_cycle):
        w = find_berge_witness(K3, tight_cycle, SearchConstraints(required_core={0, 1, 2}))
        assert w.serialize() == (
            "core: 0->0 1->1 2->2\n"
            "edge: {0,1} -> {0,1,4}\n"
            "edge: {0,2} -> {0,1,2}\n"
            "edge: {1,2} -> {1,2,3}\n"
        )

    def test_path_witness_validates(self, tight_cycle):
        w = find_berge_witness(make_path(4), tight_cycle)
        assert w is not None
        validate_witness(make_path(4), tight_cycle, w)


CORPUS_PATTERNS = small_patterns() + [
    K4, make_clique(5), make_cycle(5), K23, Graph(3, ((0, 1),)),
]
# sha256 of the serialized corpus below; any change to a witness, to the
# order in which candidates are tried, or to a verdict changes it
CORPUS_DIGEST = "a39d9a25214c5facfb531ec810ff7c12ecb8f0ab8c983b6126596d20b466de5b"


def _corpus_outputs():
    """Witnesses (or "none") for a fixed seeded corpus: plain and constrained
    searches, and virtual-edge probes, over random hosts and constructions."""
    rng = random.Random(20231)
    hosts = [random_hypergraph(rng) for _ in range(120)]
    hosts += [random_hypergraph(rng, max_vertices=10, max_edges=16) for _ in range(60)]
    hosts += [build_c_k_4(3)[0], build_s(20, 3, 4)[0], build_s(24, 4, 5)[0]]
    for hi, h in enumerate(hosts):
        index = engine._Index(h)
        present = h.edge_set()
        for pi, f in enumerate(CORPUS_PATTERNS):
            pattern = engine._Pattern(f)
            req = frozenset(rng.sample(range(h.n), rng.randint(1, 2)))
            forb = frozenset(rng.sample(range(h.n), rng.randint(1, 2))) - req
            edge = rng.choice(h.edges) if h.edges else None
            cases = [
                ("plain", SearchConstraints()),
                ("req", SearchConstraints(required_core=req)),
                ("forb", SearchConstraints(forbidden_core=forb)),
                ("edge", SearchConstraints(required_edge=edge)),
                ("req+forb", SearchConstraints(required_core=req, forbidden_core=forb)),
            ]
            for name, c in cases:
                w = find_berge_witness(f, h, c)
                yield f"{hi} {pi} {name}\n" + (w.serialize() if w else "none\n")
            for _ in range(3 if hi < 180 else 12):
                size = rng.randint(2, min(4, h.n))
                t = tuple(sorted(rng.sample(range(h.n), size)))
                if t in present:
                    continue
                w = engine._search(index, pattern, required_edge=t)
                yield f"{hi} {pi} virtual {t}\n" + (w.serialize() if w else "none\n")


class TestGoldenCorpus:
    def test_witness_corpus_digest(self):
        outputs = list(_corpus_outputs())
        found = sum(not out.endswith("none\n") for out in outputs)
        assert len(outputs) == 15002 and found == 7121
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
        assert digest == CORPUS_DIGEST
