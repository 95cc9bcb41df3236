import copy
import hashlib
import itertools
import random
import re
import warnings
from math import ceil, comb

import pytest

from bergesat import engine, oracle, saturation
from bergesat.core import Graph, Hypergraph, add_edge, missing_edges
from bergesat.constructions import build_h_feedback, build_h_min_deg, build_s
from bergesat.engine import contains_berge, creates_new_berge
from bergesat.invariants import make_clique, make_cycle, make_path, make_star
from bergesat.oracle import (
    berge_oracle,
    greedy_saturate,
    min_saturation_search,
    orbit_representatives,
)
from bergesat.saturation import is_saturated

from conftest import k4_minus_edge, random_hypergraph, small_patterns
from test_saturation import reference_corpus, twin_corpus

K3 = make_clique(3)
K4 = make_clique(4)


class TestBergeOracle:
    def test_single_containing_edge(self):
        assert berge_oracle(make_clique(2), Hypergraph(3, ((0, 1, 2),)))

    def test_pigeonhole(self):
        assert not berge_oracle(K3, Hypergraph(4, ((0, 1, 2), (1, 2, 3))))

    def test_caps_enforced(self):
        big_host = Hypergraph(9, tuple((i, i + 1) for i in range(8)) + ((0, 8),))
        with pytest.raises(ValueError):
            berge_oracle(K3, big_host)
        with pytest.raises(ValueError):
            berge_oracle(make_clique(5), Hypergraph(3, ((0, 1, 2),)))

    def test_agreement_with_engine(self):
        rng = random.Random(4242)
        for _ in range(80):
            h = random_hypergraph(rng)
            f = rng.choice(small_patterns())
            assert berge_oracle(f, h) == contains_berge(f, h)

    def test_agreement_with_brute_force(self):
        rng = random.Random(2323)
        padded = [Graph(f.n + extra, f.edges) for f in small_patterns() for extra in (1, 3)]
        edgeless = [Graph(0, ()), Graph(1, ()), Graph(4, ())]
        scattered = [Graph(6, ((1, 4), (4, 5))), Graph(7, ((0, 6), (2, 3), (3, 6)))]
        # a star and K4, with a vertex of degree 3, which few hosts have
        patterns = small_patterns() + padded + edgeless + scattered + [make_star(3), K4]
        kinds = {"more vertices": 0, "more edges": 0, "degrees": 0, "isolated vertices": 0,
                 "found": 0}
        for i in range(600):
            f = rng.choice(patterns)
            if i % 2:
                h = random_hypergraph(rng, max_vertices=7, max_edges=rng.choice((2, 7)))
            else:
                # a few k-sets, as min_saturation_search decides: about as
                # many edges as f, so their degrees often fall short of f's
                n = rng.randint(4, 7)
                ksets = list(itertools.combinations(range(n), rng.choice((2, 3))))
                m = min(len(ksets), len(f.edges) + rng.randint(0, 2), 8)
                h = Hypergraph(n, tuple(sorted(rng.sample(ksets, m))))
            expected = brute_berge(f, h)
            assert berge_oracle(f, h) == expected, (f, h)
            kinds["more vertices"] += f.n > h.n
            kinds["more edges"] += f.n <= h.n and len(f.edges) > len(h.edges)
            # enough vertices and edges, but too few host vertices of some degree
            short = f.n <= h.n and len(f.edges) <= len(h.edges) and not degrees_dominate(f, h)
            assert not (short and expected), (f, h)
            kinds["degrees"] += short
            kinds["isolated vertices"] += f.n > len({v for e in f.edges for v in e})
            kinds["found"] += expected
        assert min(kinds.values()) >= 20, kinds

    def test_isolated_vertices_are_not_placed(self):
        # one recursion level per pattern vertex would overflow the stack
        assert berge_oracle(Graph(2000, ()), Hypergraph(2000, ())) is True
        assert berge_oracle(Graph(2000, ((1998, 1999),)), Hypergraph(2000, ((0, 1),))) is True


def degrees_dominate(f, h):
    """Whether the host's degrees, sorted, dominate the pattern's, sorted:
    the Berge degree condition, restated independently of the oracle."""
    hdeg = sorted((sum(v in e for e in h.edges) for v in range(h.n)), reverse=True)
    return all(a >= b for a, b in zip(hdeg, sorted(f.degrees(), reverse=True)))


def brute_berge(f, h):
    """Berge containment by every injection of all the pattern vertices and,
    per injection, every assignment of distinct host edges to pattern edges."""
    if f.n > h.n:
        return False
    host_sets = [set(e) for e in h.edges]

    def assign(i, placed, used):
        if i == len(f.edges):
            return True
        x, y = f.edges[i]
        a, b = placed[x], placed[y]
        for j, e in enumerate(host_sets):
            if not used[j] and a in e and b in e:
                used[j] = True
                if assign(i + 1, placed, used):
                    return True
                used[j] = False
        return False

    return any(assign(0, dict(enumerate(injection)), [False] * len(host_sets))
               for injection in itertools.permutations(range(h.n), f.n))


class TestGreedySaturate:
    def test_empty_start_becomes_saturated(self):
        result = greedy_saturate(Hypergraph(5, ()), K3, 3)
        assert is_saturated(result, K3, 3).saturated

    def test_edge_count_at_least_minimum(self):
        result = greedy_saturate(Hypergraph(5, ()), K3, 3)
        best = min_saturation_search(5, 3, K3, 3)
        assert len(result.edges) >= best.m_star

    def test_idempotent(self):
        first = greedy_saturate(Hypergraph(6, ()), K3, 3)
        again = greedy_saturate(first, K3, 3)
        assert again == first

    def test_completes_mindeg_family(self):
        h, _ = build_h_min_deg(12, 3, K4)
        completed = greedy_saturate(h, K4, 3)
        assert set(h.edges) <= set(completed.edges)
        assert is_saturated(completed, K4, 3).saturated

    def test_fewer_vertices_than_k_rejected(self):
        with pytest.raises(ValueError, match=r"^hypergraph has 2 < k=3 vertices$"):
            greedy_saturate(Hypergraph(2, ()), K4, 3)

    def test_rejects_non_free_start(self):
        h = Hypergraph(4, ((0, 1), (0, 2), (1, 2)))
        with pytest.raises(ValueError):
            greedy_saturate(h, K3, 2)

    def test_custom_order_changes_outcome_deterministically(self):
        reverse = sorted(missing_edges(Hypergraph(5, ()), 3), reverse=True)
        a = greedy_saturate(Hypergraph(5, ()), K3, 3, order=reverse)
        b = greedy_saturate(Hypergraph(5, ()), K3, 3, order=reverse)
        assert a == b and is_saturated(a, K3, 3).saturated


def reference_greedy(h, f, k, order=None):
    """The slow greedy loop: one independent probe on the materialized host
    per candidate, no shortcut through pairs already proved good."""
    current = h
    for e in missing_edges(h, k) if order is None else order:
        t = tuple(sorted(e))
        if t in current.edge_set():
            continue
        if not creates_new_berge(current, t, f):
            current = add_edge(current, t)
    return current


def random_free_start(rng, n, k, f):
    """A Berge-F-free k-uniform hypergraph with a few random edges."""
    h = Hypergraph(n, ())
    for _ in range(rng.randint(0, 4)):
        t = tuple(sorted(rng.sample(range(n), k)))
        if t not in h.edge_set() and not creates_new_berge(h, t, f):
            h = add_edge(h, t)
    return h


GREEDY_PATTERNS = [
    K3, K4, make_cycle(4), make_cycle(5), make_path(4), make_star(3), k4_minus_edge(),
]


class TestGreedyAgainstReference:
    def test_matches_slow_loop(self):
        rng = random.Random(31)
        for k in (3, 4):
            for f in GREEDY_PATTERNS:
                for _ in range(3):
                    h = random_free_start(rng, rng.randint(k + 2, 8), k, f)
                    shuffled = list(missing_edges(h, k))
                    rng.shuffle(shuffled)
                    duplicated = shuffled + shuffled[::2] + list(h.edges)
                    rng.shuffle(duplicated)
                    for order in (None, shuffled, duplicated):
                        expected = reference_greedy(h, f, k, order)
                        got = greedy_saturate(h, f, k, order)
                        assert got.edges == expected.edges

    def test_bad_marks_dropped_after_an_accept(self):
        # a set whose pair keys were all marked bad can create a new copy once
        # another edge is added: a greedy that kept its bad marks accepts one
        # here, and its certificate check raises
        h = Hypergraph(6, ((2, 4),))
        got = greedy_saturate(h, make_cycle(5), 2)
        assert got.edges == reference_greedy(h, make_cycle(5), 2).edges
        assert len(got.edges) == 9

    def test_default_order_walks_only_open_prefixes(self, monkeypatch):
        # every 3-set through a pair known good is skipped with its prefix: 78
        # accept calls when measured, against 9,880 for every missing 3-set
        calls = [0]
        real_accept = saturation._Scan.accept

        def counting(scan, t):
            calls[0] += 1
            real_accept(scan, t)

        monkeypatch.setattr(saturation._Scan, "accept", counting)
        h = Hypergraph(40, ())
        assert greedy_saturate(h, K4, 3).edges == reference_greedy(h, K4, 3).edges
        assert 0 < calls[0] <= 200

    def test_pair_shortcut_saves_probes(self, monkeypatch):
        # probes on a candidate, counted until the certificate check
        calls = {"probes": 0, "before_certify": None}
        real_search = engine._search
        real_certifies = saturation._certifies

        def counting_search(*args, **kwargs):
            if kwargs.get("required_edge") is not None:
                calls["probes"] += 1
            return real_search(*args, **kwargs)

        def marking_certifies(*args, **kwargs):
            calls["before_certify"] = calls["probes"]
            return real_certifies(*args, **kwargs)

        monkeypatch.setattr(engine, "_search", counting_search)
        monkeypatch.setattr(saturation, "_certifies", marking_certifies)
        empty = Hypergraph(12, ())
        candidates = comb(12, 3)
        greedy_saturate(empty, K4, 3)
        assert 0 < calls["before_certify"] < candidates // 2

    # (start, pattern, probes when each vertex was keyed alone, probes now,
    # edges of the result, sha256 of the repr of the list of probed k-sets),
    # the probes counted until the certificate check
    PINNED_PROBES = {
        "feedback C5": (lambda: build_h_feedback(40, 3, 3, make_cycle(5))[0], make_cycle(5),
                        718, 315, 28,
                        "79ba55cd1bf53e845753c3fdcf40cf629bcb25e83c860ebdf2a9127a896cddd7"),
        "empty K4": (lambda: Hypergraph(14, ()), K4, 99, 26, 23,
                     "1dd6694e0cba3e82a40d2b59edb4693becdbcef70eeb40e142b3dc75e6e9506a"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_PROBES))
    def test_probe_sequence_is_pinned(self, monkeypatch, name):
        start, f, before, probes, edges, digest = self.PINNED_PROBES[name]
        assert probes <= before
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the feedback host's a == k is flagged
            h = start()
        probed: list = []
        certifying = [False]
        real_search = engine._search
        real_certifies = saturation._certifies

        def recording_search(*args, **kwargs):
            if kwargs.get("required_edge") is not None and not certifying[0]:
                probed.append(kwargs["required_edge"])
            return real_search(*args, **kwargs)

        def marking_certifies(*args, **kwargs):
            certifying[0] = True
            return real_certifies(*args, **kwargs)

        monkeypatch.setattr(engine, "_search", recording_search)
        monkeypatch.setattr(saturation, "_certifies", marking_certifies)
        result = greedy_saturate(h, f, 3)
        assert (len(probed), len(result.edges)) == (probes, edges)
        assert hashlib.sha256(repr(probed).encode()).hexdigest() == digest

    def test_non_uniform_start_rejected_before_any_probe(self, monkeypatch):
        calls = [0]
        real_creates_new = saturation._Scan.creates_new

        def counting(*args):
            calls[0] += 1
            return real_creates_new(*args)

        monkeypatch.setattr(saturation._Scan, "creates_new", counting)
        h = Hypergraph(8, ((0, 1, 2), (3, 4)))
        with pytest.raises(ValueError, match="hypergraph is not 3-uniform"):
            greedy_saturate(h, K4, 3)
        assert calls[0] == 0

    def test_uniformity_checked_before_any_search(self, monkeypatch):
        calls = [0]
        real_search = engine._search

        def counting(*args, **kwargs):
            calls[0] += 1
            return real_search(*args, **kwargs)

        monkeypatch.setattr(engine, "_search", counting)
        # the four triples of {0, 1, 2, 3} hold a Berge triangle, and (4, 5) is a pair
        h = Hypergraph(6, ((0, 1, 2), (0, 1, 3), (1, 2, 3), (0, 2, 3), (4, 5)))
        with pytest.raises(ValueError, match="hypergraph is not 3-uniform"):
            greedy_saturate(h, K3, 3)
        assert calls[0] == 0

    @pytest.mark.parametrize("bad", [(0, 1, 5), (0, 1, -1), (2, 2, 3), (4,), (0, 1), (0, 1, 2, 3)])
    def test_invalid_candidate_rejected(self, bad):
        order = list(itertools.islice(missing_edges(Hypergraph(5, ()), 3), 2)) + [bad]
        with pytest.raises(ValueError, match=re.escape(str(tuple(sorted(bad))))):
            greedy_saturate(Hypergraph(5, ()), K3, 3, order=order)


def feedback40():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the feedback host's a == k is flagged
        return build_h_feedback(40, 3, 3, make_cycle(5))[0]


class TestGreedyCertificate:
    """Greedy's result is certified from the witnesses of the probes that
    rejected its candidates (``saturation._certifies``): a wrong proof or a
    host that is not free fails the check, and a missing proof costs probes."""

    FAILED = "greedy completion failed to certify saturation"

    @staticmethod
    def certify_with(monkeypatch, change):
        """Greedy on the n=40 feedback host with C5, its certificate check
        given ``change(h, proofs)`` in place of (h, proofs); returns the
        required-edge probes that check makes."""
        probes = [0]
        real_search = engine._search
        real_certifies = saturation._certifies

        def counting_search(*args, **kwargs):
            probes[0] += kwargs.get("required_edge") is not None
            return real_search(*args, **kwargs)

        def changed(h, f, k, proofs):
            h, proofs = change(h, proofs)
            monkeypatch.setattr(engine, "_search", counting_search)
            return real_certifies(h, f, k, proofs)

        monkeypatch.setattr(saturation, "_certifies", changed)
        result = greedy_saturate(feedback40(), make_cycle(5), 3)
        return result, probes[0]

    @pytest.mark.parametrize("n, f, count", [(5, K3, 1), (7, make_cycle(5), 7)])
    def test_skipped_sets_fail(self, n, f, count):
        # the first sets of the lexicographic order, the second with one rejected
        order = list(itertools.islice(missing_edges(Hypergraph(n, ()), 3), count))
        with pytest.raises(RuntimeError, match=self.FAILED):
            greedy_saturate(Hypergraph(n, ()), f, 3, order=order)

    def test_certified_from_own_witnesses(self, monkeypatch):
        result, probes = self.certify_with(monkeypatch, lambda h, proofs: (h, proofs))
        assert result == reference_greedy(feedback40(), make_cycle(5), 3)
        assert probes <= 10

    @pytest.mark.parametrize("onto", ["proof set", "missing set", "host edge"])
    def test_tampered_witness_fails(self, monkeypatch, onto):
        # one pattern edge of the first proof is moved onto another set
        # through its core images: another proof's set (the host-edge check
        # rejects it), a missing set that no proof names, or a host edge the
        # witness already assigns (``validate_witness`` rejects both)
        def tamper(h, proofs):
            t, w = proofs[0]
            sets = {s for s, _ in proofs}
            pool = {"proof set": sets, "missing set": set(missing_edges(h, 3)) - sets,
                    "host edge": set(w.edge_map.values()) - {t}}[onto]
            for fe, e in w.edge_map.items():
                ends = {w.core_map[fe[0]], w.core_map[fe[1]]}
                moves = sorted(s for s in pool if ends <= set(s) and s not in (e, t))
                if e != t and moves:
                    bad = copy.deepcopy(w)
                    bad.edge_map[fe] = moves[0]
                    return h, [(t, bad)] + proofs[1:]
            raise AssertionError("no set to move a pattern edge onto")

        with pytest.raises(RuntimeError, match=self.FAILED):
            self.certify_with(monkeypatch, tamper)

    def test_proof_on_a_host_edge_fails(self, monkeypatch):
        def on_edge(h, proofs):
            return h, proofs + [(h.edges[0], proofs[0][1])]

        with pytest.raises(RuntimeError, match=self.FAILED):
            self.certify_with(monkeypatch, on_edge)

    def test_host_that_is_not_free_fails(self, monkeypatch):
        def extra_edge(h, proofs):
            sets = {s for s, _ in proofs}
            e = next(t for t in missing_edges(h, 3) if t not in sets)
            return add_edge(h, e), proofs

        with pytest.raises(RuntimeError, match=self.FAILED):
            self.certify_with(monkeypatch, extra_edge)

    @pytest.mark.parametrize("every", [False, True])
    def test_dropped_proofs_are_probed(self, monkeypatch, every):
        def pair_key(scan, w, t):
            x, y = next(fe for fe, e in w.edge_map.items() if e == t)
            return saturation._pair_key(scan.key[w.core_map[x]], scan.key[w.core_map[y]])

        def drop_first_key(h, proofs):
            # every proof of the first proof's key, as the certificate keys it
            scan = saturation._Scan(h, make_cycle(5), 3)
            first = pair_key(scan, proofs[0][1], proofs[0][0])
            return h, [(t, w) for t, w in proofs if pair_key(scan, w, t) != first]

        drop = (lambda h, proofs: (h, [])) if every else drop_first_key
        result, probes = self.certify_with(monkeypatch, drop)
        assert result == reference_greedy(feedback40(), make_cycle(5), 3) and probes > 0


def symmetric_greedy_corpus():
    """Greedy starts rich in twins and swaps, as (start, pattern, k, order):
    empty starts and disjoint copies of one block, in lexicographic and
    shuffled order, S(n,3,4) less some edges, and feedback and min-degree
    starts."""
    rng = random.Random(1717)
    for k in (2, 3):
        for f in GREEDY_PATTERNS:
            for _ in range(2):
                n = rng.randint(k + 3, 9)
                size = rng.randint(k, 4)
                block = {tuple(sorted(rng.sample(range(size), k))) for _ in range(rng.randint(0, 2))}
                copies = tuple(sorted(tuple(v + s for v in e)
                                      for s in range(0, n - size + 1, size) for e in block))
                for h in (Hypergraph(n, ()), Hypergraph(n, copies)):
                    if contains_berge(f, h):
                        continue
                    order = list(missing_edges(h, k))
                    rng.shuffle(order)
                    yield h, f, k, None
                    yield h, f, k, order
    # orders in which a class joins a group whose other classes all left it
    # after a pair across them was proved good
    for seed in (35, 77, 134):
        order = list(missing_edges(Hypergraph(6, ()), 2))
        random.Random(seed).shuffle(order)
        yield Hypergraph(6, ()), K3, 2, order
    for n, removed in ((14, 1), (14, 3), (17, 2)):
        s = build_s(n, 3, 4)[0]
        drop = rng.sample(s.edges, removed)
        yield Hypergraph(n, tuple(e for e in s.edges if e not in drop)), K4, 3, None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the feedback host's a == k is flagged
        yield build_h_feedback(20, 3, 3, make_cycle(5))[0], make_cycle(5), 3, None
    yield build_h_min_deg(12, 3, K4)[0], K4, 3, None


def _pair_keys(scan):
    """The pair key of every pair of vertices in ``scan``."""
    key = scan.key
    return {p: saturation._pair_key(key[p[0]], key[p[1]])
            for p in itertools.combinations(range(len(key)), 2)}


def _same_blocks(a, b):
    """Whether the labellings ``a`` and ``b`` of range(n) part it alike."""
    return len(set(a)) == len(set(b)) == len(set(zip(a, b)))


def _pair_orbits(h):
    """The orbit of each pair under every automorphism of ``h``, by brute
    force over all permutations."""
    edges = h.edge_set()
    auts = [g for g in itertools.permutations(range(h.n))
            if all(tuple(sorted(g[v] for v in e)) in edges for e in h.edges)]
    return {p: min(tuple(sorted((g[p[0]], g[p[1]]))) for g in auts)
            for p in itertools.combinations(range(h.n), 2)}


class TestGreedyByOrbits:
    """Greedy keys pairs by the swap groups of its growing host: after each
    accepted edge the keys are those of the new host, pairs of one key lie
    in one orbit, and the good marks are the new keys of the pairs good
    before."""

    def test_results_match_slow_loop(self):
        for h, f, k, order in symmetric_greedy_corpus():
            assert greedy_saturate(h, f, k, order).edges == reference_greedy(h, f, k, order).edges

    def test_keys_follow_each_accepted_edge(self, monkeypatch):
        real_accept = saturation._Scan.accept
        accepted = [0]

        def checked_accept(scan, t):
            before = _pair_keys(scan)
            good_before = {p for p, key in before.items() if key in scan.good}
            size = len(scan.index.edges)
            real_accept(scan, t)
            if len(scan.index.edges) == size:
                return
            accepted[0] += 1
            n = len(scan.key)
            h = Hypergraph(n, tuple(sorted(scan.index.edges)))
            cls, _, group = saturation._swap_groups(engine._Index(h))
            assert _same_blocks([scan.key[v][1] for v in range(n)], cls)
            assert _same_blocks([scan.key[v][0] for v in range(n)], [group[c] for c in cls])
            after = _pair_keys(scan)
            assert {key for key in after.values() if key in scan.good} == \
                {after[p] for p in good_before}
            if n <= 7:
                orbit = _pair_orbits(h)
                first: dict = {}
                for p, key in after.items():
                    assert orbit[first.setdefault(key, p)] == orbit[p], (h, p, key)

        monkeypatch.setattr(saturation._Scan, "accept", checked_accept)
        for h, f, k, order in symmetric_greedy_corpus():
            greedy_saturate(h, f, k, order)
        assert accepted[0] > 500


class TestOrbitRepresentatives:
    def test_cover_every_class_once(self):
        for h, _, k in itertools.chain(reference_corpus(), twin_corpus()):
            incidence = [tuple(i for i, e in enumerate(h.edges) if v in e) for v in range(h.n)]

            def classes(t):
                return tuple(sorted(incidence[v] for v in t))

            least = {}  # the lexicographically first missing member of each multiset
            for t in missing_edges(h, k):
                least.setdefault(classes(t), t)
            reps = orbit_representatives(h, k)
            assert sorted(reps) == sorted(least.values())
            first: dict = {}
            for v, inc in enumerate(incidence):
                first.setdefault(inc, v)
            keys = [sorted(first[incidence[v]] for v in t) for t in reps]
            assert keys == sorted(keys)  # classes are numbered by least vertex


class TestMinSaturationSearch:
    @pytest.mark.parametrize("n,expected", [(4, 2), (5, 2), (6, 3)])
    def test_triangle_values(self, n, expected):
        result = min_saturation_search(n, 3, K3, 4)
        assert result.m_star == expected == ceil((n - 1) / 2)

    def test_witness_passes_full_verification(self):
        result = min_saturation_search(5, 3, K3, 3)
        assert is_saturated(result.witness_h, K3, 3).saturated

    def test_k4_uniformity(self):
        # second uniformity inside the caps: C(5,4) = 5, C(6,4) = 15
        for n in (5, 6):
            result = min_saturation_search(n, 4, K3, 3)
            assert result.m_star == ceil((n - 1) / 3)

    def test_isomorph_rejection_preserves_answer(self):
        plain = min_saturation_search(5, 3, K3, 3)
        pruned = min_saturation_search(5, 3, K3, 3, isomorph_reject=True)
        assert plain.m_star == pruned.m_star
        assert plain.witness_h == pruned.witness_h

    def test_k4_value_at_six_vertices(self):
        # sat_3(6, Berge-K4): 15 s when the oracle tried every injection
        plain = min_saturation_search(6, 3, K4, 5)
        pruned = min_saturation_search(6, 3, K4, 5, isomorph_reject=True)
        assert (plain.m_star, plain.examined) == (5, 6630)
        assert (pruned.m_star, pruned.witness_h, pruned.examined) == (
            plain.m_star, plain.witness_h, plain.examined
        )
        assert is_saturated(plain.witness_h, K4, 3).saturated

    @pytest.mark.parametrize("f, m_star, examined, witness", [
        (make_cycle(4), 4, 1352, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 1, 5))),
        (make_star(3), 3, 226, ((0, 1, 2), (0, 1, 3), (2, 3, 4))),
    ], ids=["C4", "K13"])
    def test_values_at_six_vertices(self, f, m_star, examined, witness):
        result = min_saturation_search(6, 3, f, 5)
        assert (result.m_star, result.examined, result.witness_h) == (
            m_star, examined, Hypergraph(6, witness))
        assert is_saturated(result.witness_h, f, 3).saturated

    def test_no_k4_saturated_graph_on_six_vertices_within_six_edges(self):
        # sat_2(6, K4) = 9 > 6: every subset up to 6 edges is decided
        assert min_saturation_search(6, 2, K4, 6) is None

    @pytest.mark.parametrize("n, k, f, m_max, expected", [
        (3, 2, K4, 3, (3, 8)),
        (4, 2, Graph(5, K3.edges), 6, (6, 64)),
        (5, 2, Graph(7, K3.edges), 6, None),
    ], ids=["K4-n3", "K3+2-n4", "K3+4-n5"])
    def test_pattern_larger_than_the_host_is_answered_unenumerated(self, monkeypatch, n, k,
                                                                   f, m_max, expected):
        def decide(*args):
            raise AssertionError("a subset was decided")

        monkeypatch.setattr(oracle, "_is_saturated_by_oracle", decide)
        result = min_saturation_search(n, k, f, m_max)
        assert expected == (None if result is None else (result.m_star, result.examined))

    def test_pattern_larger_than_the_host_matches_plain_enumeration(self):
        # each subset in order, decided by berge_oracle: free, and a copy
        # with each missing set added
        def plain(n, k, f, m_max):
            universe = list(itertools.combinations(range(n), k))
            examined = 0
            for m in range(m_max + 1):
                for edges in itertools.combinations(universe, m):
                    examined += 1
                    if not berge_oracle(f, Hypergraph(n, edges)) and all(
                            berge_oracle(f, Hypergraph(n, edges + (e,)))
                            for e in universe if e not in edges):
                        return m, Hypergraph(n, edges), examined
            return None

        found = 0
        for n in range(2, 6):
            patterns = [Graph(n + extra, K3.edges) for extra in (1, 2) if n + extra >= 3]
            patterns += [make_path(n + 1), K4] if n < 4 else [make_path(n + 1)]
            for k, f, m_max in itertools.product(range(2, n + 1), patterns, range(7)):
                result = min_saturation_search(n, k, f, m_max)
                got = None if result is None else (result.m_star, result.witness_h,
                                                   result.examined)
                assert got == plain(n, k, f, m_max), (n, k, f, m_max)
                found += result is not None
        assert found > 50

    def test_unreachable_budget_returns_none(self):
        assert min_saturation_search(6, 3, K3, 2) is None

    def test_examined_counts_subsets(self):
        result = min_saturation_search(4, 3, K3, 2)
        assert result.examined >= 1 + comb(4, 1)

    def test_caps_enforced(self):
        with pytest.raises(ValueError):
            min_saturation_search(8, 3, K3, 3)  # C(8,3) = 56 > 25
        with pytest.raises(ValueError):
            min_saturation_search(5, 3, K3, 7)

    @pytest.mark.parametrize("k,m_max", [(3, -1), (1, 3), (0, 3)])
    def test_bad_bounds_rejected_before_enumerating(self, monkeypatch, k, m_max):
        def decide(*args):
            raise AssertionError("a subset was decided")

        monkeypatch.setattr(oracle, "_is_saturated_by_oracle", decide)
        with pytest.raises(ValueError):
            min_saturation_search(5, k, K3, m_max)

    def test_small_free_subsets_need_no_search(self, monkeypatch):
        # with at most |E(K4)| - 2 = 4 edges and a missing 3-set, a host is
        # free and stays free with one more edge: unsaturated, unsearched
        calls = []
        real = oracle._berge_copy

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(oracle, "_berge_copy", counting)
        assert min_saturation_search(6, 3, K4, 4) is None
        assert not calls
        assert min_saturation_search(6, 3, K4, 5).m_star == 5
        assert calls

    @pytest.mark.parametrize("f", [K3, make_cycle(4), make_path(3), make_star(3)],
                             ids=["K3", "C4", "P3", "K13"])
    def test_oracle_decision_matches_the_verifier(self, f):
        # every host of at most 4 of the 3-sets of 5 vertices, decided by
        # the oracle (degree cut included) and by the engine's verifier
        universe = list(itertools.combinations(range(5), 3))
        saturated = 0
        for m in range(5):
            for edges in itertools.combinations(universe, m):
                expected = is_saturated(Hypergraph(5, edges), f, 3).saturated
                assert oracle._is_saturated_by_oracle(f, 5, universe, edges) == expected, edges
                saturated += expected
        assert saturated

    def test_pattern_cap_still_enforced(self):
        with pytest.raises(ValueError, match="pattern has 10 > 6 edges"):
            min_saturation_search(6, 3, make_clique(5), 4)

    @pytest.mark.parametrize("n,k", [(5, 2), (5, 3), (6, 2), (6, 3)])
    @pytest.mark.parametrize("f", [K3, make_path(3), make_cycle(4), make_star(3)],
                             ids=["K3", "P3", "C4", "K13"])
    def test_search_result_unchanged(self, n, k, f):
        m_max = 4 if n == 5 else 3
        plain = min_saturation_search(n, k, f, m_max)
        pruned = min_saturation_search(n, k, f, m_max, isomorph_reject=True)
        if plain is None:
            assert pruned is None
        else:
            assert (plain.m_star, plain.witness_h, plain.examined) == (
                pruned.m_star, pruned.witness_h, pruned.examined
            )
