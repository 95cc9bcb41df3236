import itertools
import multiprocessing
import random
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from math import comb

import pytest

from bergesat import engine, saturation
from bergesat.core import Hypergraph, add_edge, count_missing_edges, missing_edges
from bergesat.constructions import build_c_k_4, build_c_k_ell, build_h_feedback, build_s
from bergesat.engine import SearchConstraints, find_berge_witness
from bergesat.invariants import make_clique, make_cycle, make_path, make_star
from bergesat.oracle import greedy_saturate, orbit_representatives, saturation_violations
from bergesat.saturation import (
    all_cores_present,
    all_pairs_good,
    all_subsets_are_cores,
    is_berge_free,
    is_saturated,
)

from conftest import k4_minus_edge

K3 = make_clique(3)
K4 = make_clique(4)
REFERENCE_PATTERNS = [
    K3, K4, make_clique(5), make_cycle(4), make_cycle(5), make_path(4),
    make_star(3), k4_minus_edge(),
]


@pytest.fixture(scope="module")
def s21():
    return build_s(21, 3, 4)[0]


class TestFreeness:
    def test_tight_cycle_contains_triangle(self):
        h, _ = build_c_k_4(3)
        free, witness = is_berge_free(h, K3)
        assert not free and witness is not None

    def test_empty_is_free(self):
        assert is_berge_free(Hypergraph(5, ()), K3) == (True, None)

    def test_apex_family_is_free(self, s21):
        free, witness = is_berge_free(s21, K4)
        assert free and witness is None


class TestIsSaturated:
    def test_apex_family_small(self, s21):
        report = is_saturated(s21, K4, 3)
        assert report.saturated
        assert report.checked_missing == count_missing_edges(s21, 3)
        assert report.mode == "full"

    def test_broken_family_not_saturated(self):
        h, _ = build_c_k_4(3)
        broken = Hypergraph(5, h.edges[:-1])
        report = is_saturated(broken, K4, 3)
        assert report.is_free and not report.saturated
        assert report.violations_sat  # some missing triple creates nothing

    def test_worker_count_does_not_change_report(self, s21):
        expected = is_saturated(s21, K4, 3, jobs=1)
        for jobs in (8, 100_000, 3):
            assert is_saturated(s21, K4, 3, jobs=jobs) == expected
        # twin classes {0}, {1, 2} and {3, 4}, the last two swap: two swap groups
        small = Hypergraph(5, ((0, 1, 2), (0, 3, 4)))
        assert is_saturated(small, K3, 3, jobs=100_000).checked_missing == 8

    def test_jobs_below_one_rejected_before_any_search(self, monkeypatch, s21):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before validating jobs")

        monkeypatch.setattr(engine, "_search", no_search)
        with pytest.raises(ValueError, match="^jobs must be at least 1$"):
            is_saturated(s21, K4, 3, jobs=0)

    def test_worker_count_does_not_change_violations(self):
        rng = random.Random(5)
        triples = list(itertools.combinations(range(16), 3))
        hosts = [
            (one_edge_removed(rng, 30, 3, 4), K4, 3),
            (one_edge_removed(rng, 24, 4, 5), make_clique(5), 4),
            (Hypergraph(16, tuple(sorted(rng.sample(triples, 15)))), k4_minus_edge(), 3),
        ]
        for h, f, k in hosts:
            for kw in ({}, {"orbits": True}, {"sample": 300, "seed": 3}):
                one = is_saturated(h, f, k, jobs=1, **kw)
                two = is_saturated(h, f, k, jobs=2, **kw)
                assert one.violations_sat
                assert one == two

    def test_concurrent_calls_do_not_share_scan_state(self):
        # three threads verify different hosts at once, switching often; one
        # host has 246 violations, which a shared scan state would lose
        s30 = build_s(30, 3, 4)[0]
        calls = [(s30, K4, 3), (Hypergraph(s30.n, s30.edges[:-3]), K4, 3),
                 (build_s(24, 4, 5)[0], make_clique(5), 4)]
        serial = [is_saturated(*c) for c in calls]
        assert len(serial[1].violations_sat) == 246
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                with ThreadPoolExecutor(len(calls)) as pool:
                    got = pool.map(lambda c: is_saturated(*c), calls, timeout=120)
                    assert list(got) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_sampled_mode_is_reproducible(self, s21):
        a = is_saturated(s21, K4, 3, sample=40, seed=11)
        b = is_saturated(s21, K4, 3, sample=40, seed=11)
        assert a == b
        assert a.mode == "sampled" and a.checked_missing == 40
        assert not a.saturated  # sampling never certifies

    def test_sampler_matches_indexing_the_missing_sets_of_larger_hosts(self):
        hosts = [(build_s(45, 3, 4)[0], 3), (build_s(22, 4, 5)[0], 4),
                 (Hypergraph(31, build_s(21, 3, 4)[0].edges), 3)]
        for h, k in hosts:
            missing = list(missing_edges(h, k))
            total = len(missing)
            for seed in (0, 1, 2):
                for count in (2000, total):
                    picks = sorted(random.Random(seed).sample(range(total), count))
                    assert saturation._sample_missing(h, k, count, seed) == [missing[i] for i in picks]

    def test_sampler_edge_cases_match_indexing_the_missing_sets(self):
        # (0, 1, 4) and (0, 1, 7) share a run with two existing edges between
        # them; k = 2 and k = n; edges of other sizes must be ignored
        hosts = [
            (Hypergraph(8, ((0, 1, 5), (0, 1, 6), (2, 3, 4), (5, 6, 7))), 3),
            (Hypergraph(7, ((0, 3), (0, 4), (1, 2), (5, 6))), 2),
            (Hypergraph(5, ()), 5),
            (Hypergraph(5, ((0, 1, 2, 3, 4),)), 5),
            (Hypergraph(7, ((0, 1), (0, 1, 2), (0, 1, 3, 4), (2, 3, 4), (0, 1, 2, 3, 4, 5, 6))), 3),
        ]
        for h, k in hosts:
            missing = list(missing_edges(h, k))
            total = len(missing)
            assert total == count_missing_edges(h, k)
            for seed in range(4):
                for count in (0, 1, 2, total // 2, total):
                    picks = sorted(random.Random(seed).sample(range(total), min(count, total)))
                    expected = [missing[i] for i in picks]
                    assert saturation._sample_missing(h, k, count, seed) == expected
        whole = saturation._sample_missing(*hosts[0], 52, 0)
        assert whole[whole.index((0, 1, 4)) + 1] == (0, 1, 7)

    def test_sample_larger_than_population(self):
        h, _ = build_c_k_4(3)
        report = is_saturated(h, K4, 3, sample=10_000, seed=0)
        assert report.checked_missing == count_missing_edges(h, 3)

    def test_orbit_mode_agrees(self, s21):
        full = is_saturated(s21, K4, 3)
        orbit = is_saturated(s21, K4, 3, orbits=True)
        assert orbit.mode == "orbits"
        assert orbit.no_violations == full.no_violations
        assert orbit.reduction_factor > 1
        assert orbit.checked_missing < full.checked_missing
        assert not orbit.saturated  # orbit mode never certifies

    def test_orbit_mode_finds_violations_too(self):
        h, _ = build_c_k_4(3)
        broken = Hypergraph(5, h.edges[:-1])
        assert is_saturated(broken, K4, 3, orbits=True).violations_sat

    def test_oversized_report_is_refused(self, monkeypatch):
        # 100000 twins: one class multiset to decide, C(100000, 3) sets to list
        empty = Hypergraph(100_000, ())
        with pytest.raises(ValueError, match="^166661666700000 violations exceed the cap of 1000000$"):
            is_saturated(empty, K4, 3)
        with pytest.raises(ValueError, match="^4999950000 violations exceed"):
            all_pairs_good(empty, 4)
        assert is_saturated(empty, K4, 3, orbits=True).violations_sat == [(0, 1, 2)]
        small = Hypergraph(12, ())
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", comb(12, 3))
        assert is_saturated(small, K4, 3).violations_sat == list(itertools.combinations(range(12), 3))
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", comb(12, 3) - 1)
        with pytest.raises(ValueError, match="^220 violations exceed the cap of 219$"):
            is_saturated(small, K4, 3)
        # orbit mode counts its list in class multisets: two here, in one orbit
        two = Hypergraph(6, ((0, 1, 2), (3, 4, 5)))
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", 2)
        assert is_saturated(two, K4, 3, orbits=True).violations_sat == [(0, 1, 3), (0, 3, 4)]
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", 1)
        with pytest.raises(ValueError, match="^2 violations exceed the cap of 1$"):
            is_saturated(two, K4, 3, orbits=True)

    def test_refusal_comes_at_the_set_that_crosses_the_cap(self, monkeypatch):
        # the in-process walk is read lazily: 1,084 creates_new calls when
        # measured, against 26,564 when the whole walk was listed first
        rng = random.Random(1)
        edges: set = set()
        while len(edges) < 90:
            edges.add(tuple(sorted(rng.sample(range(60), 3))))
        h = Hypergraph(60, tuple(sorted(edges)))
        calls = [0]
        real_creates_new = saturation._Scan.creates_new

        def counting(*args):
            calls[0] += 1
            return real_creates_new(*args)

        monkeypatch.setattr(saturation._Scan, "creates_new", counting)
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", 1000)
        refusal = "^1001 violations exceed the cap of 1000$"
        with pytest.raises(ValueError, match=refusal):
            is_saturated(h, K4, 3)
        assert 0 < calls[0] <= 2000
        calls[0] = 0
        with pytest.raises(ValueError, match=refusal):
            is_saturated(h, K4, 3, jobs=2)
        assert 0 < calls[0] <= 2000

    def test_non_uniform_rejected(self):
        h = Hypergraph(5, ((0, 1, 2), (0, 1)))
        with pytest.raises(ValueError):
            is_saturated(h, K4, 3)

    def test_mode_conflict_rejected(self, s21):
        with pytest.raises(ValueError):
            is_saturated(s21, K4, 3, sample=5, orbits=True)

    def test_negative_sample_rejected_before_any_search(self, monkeypatch, s21):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before validating the sample")

        monkeypatch.setattr(engine, "_search", no_search)
        with pytest.raises(ValueError, match="^sample must be at least 0$"):
            is_saturated(s21, K4, 3, sample=-1)

    def test_sample_past_the_cap_rejected_before_any_search(self, monkeypatch, s21):
        def no_search(*args, **kwargs):
            raise AssertionError("searched before validating the sample")

        monkeypatch.setattr(engine, "_search", no_search)
        with pytest.raises(ValueError, match="^sample 1000001 exceeds the cap of 1000000$"):
            is_saturated(s21, K4, 3, sample=saturation.MAX_VIOLATIONS + 1)
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", 5)
        with pytest.raises(ValueError, match="^sample 6 exceeds the cap of 5$"):
            is_saturated(s21, K4, 3, sample=6)

    def test_sample_at_the_cap_is_decided(self, monkeypatch, s21):
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", 5)
        report = is_saturated(s21, K4, 3, sample=5)
        assert report.checked_missing == 5 and report.no_violations

    def test_no_mode_starts_a_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("started a pool")

        s60 = build_s(60, 3, 4)[0]
        less = Hypergraph(s60.n, s60.edges[:-3])
        modes = ({}, {"orbits": True}, {"sample": 30_000, "seed": 2})
        expected = [is_saturated(less, K4, 3, **kw) for kw in modes]
        pairs = all_pairs_good(less, 4)
        assert all(r.violations_sat for r in expected) and not pairs.ok
        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        assert [is_saturated(less, K4, 3, jobs=2, **kw) for kw in modes] == expected
        assert all_pairs_good(less, 4) == pairs

    def test_each_call_indexes_its_host_once(self, monkeypatch, s21):
        # freeness runs on the scan's own index; greedy's certificate check
        # builds its own for the result, counted apart
        built = []
        real_init = engine._Index.__init__

        def counting_init(self, h):
            built.append(h)
            real_init(self, h)

        monkeypatch.setattr(engine._Index, "__init__", counting_init)
        less = Hypergraph(s21.n, s21.edges[:-3])
        for h, kw in ((s21, {}), (less, {}), (less, {"orbits": True}),
                      (less, {"sample": 50}), (add_edge(s21, (2, 5, 7)), {})):
            built.clear()
            is_saturated(h, K4, 3, jobs=1, **kw)
            assert built == [h]
        real_check = saturation._certifies
        final = []

        def counted_check(*args, **kwargs):
            before = len(built)
            report = real_check(*args, **kwargs)
            final.append(len(built) - before)
            return report

        monkeypatch.setattr(saturation, "_certifies", counted_check)
        built.clear()
        greedy_saturate(less, K4, 3)
        assert final == [1] and len(built) == 2 and built[0] == less

    def test_freeness_witness_is_find_berge_witness(self):
        found = 0
        for h, f, k in reference_corpus():
            witness = find_berge_witness(f, h)
            if witness is not None:
                report = is_saturated(h, f, k)
                assert [w.serialize() for w in report.violations_free] == [witness.serialize()]
                found += 1
        assert found > 10

    def test_spot_recheck_through_independent_path(self, s21):
        # certified saturation implies freeness breaks for any added edge
        report = is_saturated(s21, K4, 3)
        assert report.saturated
        rng = random.Random(99)
        pool = list(missing_edges(s21, 3))
        for e in rng.sample(pool, 20):
            free, _ = is_berge_free(add_edge(s21, e), K4)
            assert not free


def random_uniform(rng: random.Random, k: int, max_edges: int = 12) -> Hypergraph:
    n = rng.randint(k, 9)
    universe = list(itertools.combinations(range(n), k))
    m = rng.randint(0, min(len(universe), max_edges))
    return Hypergraph(n, tuple(sorted(rng.sample(universe, m))))


def one_edge_removed(rng: random.Random, n: int, k: int, ell: int) -> Hypergraph:
    h = build_s(n, k, ell)[0]
    drop = rng.randrange(len(h.edges))
    return Hypergraph(h.n, h.edges[:drop] + h.edges[drop + 1:])


def reference_corpus():
    rng = random.Random(2024)
    for k in (2, 3, 4):
        for f in REFERENCE_PATTERNS:
            for _ in range(5):
                yield random_uniform(rng, k), f, k
    for n, k, ell in ((20, 3, 4), (21, 3, 4), (30, 3, 4), (24, 4, 5)):
        yield one_edge_removed(rng, n, k, ell), make_clique(ell), k


def reduction(h: Hypergraph, k: int, reps: list) -> float | None:
    """The reduction factor an orbit report over ``reps`` must carry."""
    return count_missing_edges(h, k) / len(reps) if reps else None


@pytest.fixture
def probes(monkeypatch):
    """Counts engine searches on a missing k-set (freeness checks excluded)."""
    counter = Counter()
    real_search = engine._search

    def counting_search(*args, **kwargs):
        if kwargs.get("required_edge") is not None:
            counter["probes"] += 1
        return real_search(*args, **kwargs)

    monkeypatch.setattr(engine, "_search", counting_search)
    return counter


class TestAgainstReference:
    def test_every_mode_reports_the_reference_violations(self, probes):
        for seed, (h, f, k) in enumerate(reference_corpus()):
            expected = saturation_violations(h, f, k)
            bad = set(expected)

            probes.clear()
            full = is_saturated(h, f, k)
            assert full.violations_sat == expected
            assert full.checked_missing == count_missing_edges(h, k)
            assert probes["probes"] <= full.checked_missing

            orbit = is_saturated(h, f, k, orbits=True)
            reps = orbit_representatives(h, k)
            assert orbit.violations_sat == [t for t in reps if t in bad]
            assert bool(orbit.violations_sat) == bool(expected)
            assert orbit.checked_missing == len(reps)
            assert orbit.reduction_factor == reduction(h, k, reps)

            sampled = is_saturated(h, f, k, sample=15, seed=seed)
            picks = saturation._sample_missing(h, k, 15, seed)
            assert sampled.violations_sat == [t for t in picks if t in bad]

    def test_saturated_construction_skips_most_probes(self, probes):
        report = is_saturated(build_s(30, 3, 4)[0], K4, 3)
        assert report.saturated
        assert probes["probes"] < report.checked_missing // 4

    def test_full_scan_probes_least_members_once_in_order(self, monkeypatch):
        probed = []
        real_search = engine._search

        def recording_search(*args, **kwargs):
            if kwargs.get("required_edge") is not None:
                probed.append(kwargs["required_edge"])
            return real_search(*args, **kwargs)

        monkeypatch.setattr(engine, "_search", recording_search)
        for h, f, k in itertools.chain(reference_corpus(), twin_corpus()):
            probed.clear()
            report = is_saturated(h, f, k, jobs=1)
            once = set(probed)
            assert len(once) == len(probed)
            assert once <= set(orbit_representatives(h, k))  # least members of class multisets
            groups = saturation._swap_groups(h)
            walk = [tuple(sorted(t)) for t in saturation._representatives(groups, k)]
            assert probed == [t for t in walk if t in once]  # in the orbit walk's order
            assert report.checked_missing == comb(h.n, k) - len(h.edges)

    def test_sampler_matches_indexing_the_missing_sets(self):
        for seed, (h, _, k) in enumerate(reference_corpus()):
            missing = list(missing_edges(h, k))
            total = len(missing)
            for count in (0, 1, 15, total, total + 3):
                picks = sorted(random.Random(seed).sample(range(total), min(count, total)))
                expected = [missing[i] for i in picks]
                assert saturation._sample_missing(h, k, count, seed) == expected


def twin_host(rng: random.Random, sizes: tuple[int, ...]) -> Hypergraph:
    """A random hypergraph of 3 to 6 hubs and 1 to 3 blocks of 2 to 4
    twins, plus up to 2 isolated vertices.  Every edge holds either hubs
    only or one whole block padded with hubs, and has a size in ``sizes``.
    Labels are shuffled, so twin classes are not numbered in vertex order."""
    hubs = rng.randint(3, 6)
    blocks = [rng.randint(2, min(4, max(sizes))) for _ in range(rng.randint(1, 3))]
    n = hubs + sum(blocks) + rng.randint(0, 2)
    labels = rng.sample(range(n), n)
    hub, rest = labels[:hubs], labels[hubs:]
    edges = set()
    for size in blocks:
        block, rest = rest[:size], rest[size:]
        for _ in range(rng.randint(1, 3)):
            total = rng.choice([s for s in sizes if size <= s <= size + hubs])
            edges.add(tuple(sorted(block + rng.sample(hub, total - size))))
    for _ in range(rng.randint(0, 8)):
        total = rng.choice(sizes)
        edges.add(tuple(sorted(rng.sample(hub, min(total, hubs)))))
    return Hypergraph(n, tuple(sorted(e for e in edges if len(e) in sizes)))


def twin_corpus():
    rng = random.Random(77)
    for k in (2, 3, 4):
        for f in (K3, K4, make_clique(5), make_cycle(4), make_cycle(5), make_path(4),
                  k4_minus_edge()):
            for _ in range(2):
                yield twin_host(rng, (k,)), f, k
    # the reference corpus already has S(24,4,5) less one edge
    s30, s24 = build_s(30, 3, 4)[0], build_s(24, 4, 5)[0]
    for h, f, k, removed in ((s30, K4, 3, 1), (s30, K4, 3, 2), (s24, make_clique(5), 4, 2)):
        drop = rng.sample(range(len(h.edges)), removed)
        yield Hypergraph(h.n, tuple(e for i, e in enumerate(h.edges) if i not in drop)), f, k
    # ten isolated vertices form one twin class larger than k
    yield Hypergraph(31, build_s(21, 3, 4)[0].edges), K4, 3


class TestTwinClasses:
    """The verifier decides pairs through a memo keyed by twin classes."""

    def test_every_mode_and_worker_count_matches_the_reference(self):
        twins = 0
        for seed, (h, f, k) in enumerate(twin_corpus()):
            cls = saturation._twin_classes(h)
            twins += h.n - len(set(cls))
            expected = saturation_violations(h, f, k)
            bad = set(expected)
            reps = orbit_representatives(h, k)
            picks = saturation._sample_missing(h, k, 40, seed)
            for jobs in (1, 2):
                full = is_saturated(h, f, k, jobs=jobs)
                assert full.violations_sat == expected
                orbit = is_saturated(h, f, k, jobs=jobs, orbits=True)
                assert orbit.violations_sat == [t for t in reps if t in bad]
                assert orbit.checked_missing == len(reps)
                assert orbit.reduction_factor == reduction(h, k, reps)
                sampled = is_saturated(h, f, k, jobs=jobs, sample=40, seed=seed)
                assert sampled.violations_sat == [t for t in picks if t in bad]
        assert twins > 100  # the corpus really has large twin classes

    def test_orbit_mode_is_a_view_of_full_mode(self):
        # full mode lists every k-set of each class multiset orbit mode reports
        twins = 0
        for h, f, k in itertools.chain(reference_corpus(), twin_corpus()):
            incidence = [tuple(i for i, e in enumerate(h.edges) if v in e) for v in range(h.n)]
            classes: dict[tuple, list[int]] = {}
            for v, inc in enumerate(incidence):
                classes.setdefault(inc, []).append(v)
            for jobs in (1, 2):
                orbit = is_saturated(h, f, k, jobs=jobs, orbits=True)
                expanded = []
                for t in orbit.violations_sat:
                    counts = Counter(incidence[v] for v in t).items()
                    for part in itertools.product(*(itertools.combinations(classes[inc], m)
                                                    for inc, m in counts)):
                        expanded.append(tuple(sorted(itertools.chain(*part))))
                twins += len(expanded) - len(orbit.violations_sat)
                assert is_saturated(h, f, k, jobs=jobs).violations_sat == sorted(expanded)
        assert twins > 1000  # many reported sets stand for more than one

    def test_pair_failures_match_the_pair_probe(self):
        rng = random.Random(78)
        hosts = [twin_host(rng, sizes) for sizes in ((2,), (3,), (2, 3), (2, 3, 4))
                 for _ in range(6)]
        assert any(len(set(map(len, h.edges))) > 1 for h in hosts)
        for h in hosts:
            present = h.edge_set()
            for ell in (3, 4, 5):
                expected = [p for p in itertools.combinations(range(h.n), 2)
                            if p not in present and not engine.is_ell_good(h, *p, ell)]
                report = all_pairs_good(h, ell)
                assert report.failures == expected
                assert report.checked == count_missing_edges(h, 2)

    def test_probes_bounded_by_twin_class_pairs(self, probes):
        h = build_s(100, 4, 5)[0]
        cls = saturation._twin_classes(h)
        keys = {tuple(sorted((cls[a], cls[b]))) for a, b in itertools.combinations(range(h.n), 2)}
        assert len(keys) == 773
        assert is_saturated(h, make_clique(5), 4).saturated
        assert probes["probes"] <= len(keys)
        probes.clear()
        all_pairs_good(h, 5)
        assert probes["probes"] <= len(keys)

    def test_twins_share_their_edges(self):
        for h, _, _ in twin_corpus():
            cls = saturation._twin_classes(h)
            incident = [{i for i, e in enumerate(h.edges) if v in e} for v in range(h.n)]
            for a, b in itertools.combinations(range(h.n), 2):
                assert (cls[a] == cls[b]) == (incident[a] == incident[b])
            firsts = [cls.index(c) for c in range(len(set(cls)))]
            assert firsts == sorted(firsts)  # numbered in order of least vertex


def block_host(rng: random.Random, k: int) -> Hypergraph:
    """A random k-uniform host of 1 to 3 kinds of block, each kind a size
    below k joined to a few sets of hubs and laid down 2 to 5 times, plus up
    to 3 hub edges and 2 isolated vertices.  With probability 0.3 a later
    copy moves its kind to other hubs, so some classes of one size and
    degree do not swap.  Labels are shuffled half the time."""
    hubs = rng.randint(k - 1, 5)
    n = hubs
    edges = set()
    for _ in range(rng.randint(1, 3)):
        size = rng.randint(1, k - 1)
        joins = [rng.sample(range(hubs), k - size) for _ in range(rng.randint(1, 3))]
        for copy in range(rng.randint(2, 5)):
            block = list(range(n, n + size))
            n += size
            if copy and rng.random() < 0.3:
                joins = [rng.sample(range(hubs), k - size) for _ in joins]
            edges.update(tuple(sorted(block + hub_set)) for hub_set in joins)
    if hubs >= k:
        edges.update(tuple(sorted(rng.sample(range(hubs), k))) for _ in range(rng.randint(0, 3)))
    n += rng.randint(0, 2)
    labels = list(range(n))
    if rng.random() < 0.5:
        rng.shuffle(labels)
    return Hypergraph(n, tuple(sorted(tuple(sorted(labels[v] for v in e)) for e in edges)))


class TestSwapGroups:
    """The pair memo keys a pair by the swap groups of its ends' twin
    classes, and by whether both ends lie in one class."""

    def test_groups_are_the_swaps_that_keep_the_edge_set(self):
        rng = random.Random(79)
        hosts = [h for h, _, _ in twin_corpus()]
        hosts += [block_host(rng, k) for k in (2, 3, 4) for _ in range(40)]
        merged = refused = 0
        for h in hosts:
            cls, members, group = saturation._swap_groups(h)
            assert cls == saturation._twin_classes(h)
            assert members == [[v for v in range(h.n) if cls[v] == c] for c in range(len(members))]
            firsts = [group.index(g) for g in range(len(set(group)))]
            assert firsts == sorted(firsts)  # numbered in order of least vertex
            edges, deg = h.edge_set(), h.degrees()
            for c, d in itertools.combinations(range(len(members)), 2):
                if len(members[c]) != len(members[d]):
                    assert group[c] != group[d]
                    continue
                # map each class onto the other in increasing order, checked on every edge
                image = dict(zip(members[c], members[d]))
                image.update(zip(members[d], members[c]))
                swaps = {tuple(sorted(image.get(v, v) for v in e)) for e in h.edges} == edges
                assert (group[c] == group[d]) == swaps
                merged += swaps
                refused += not swaps and deg[members[c][0]] == deg[members[d][0]]
        assert merged > 500 and refused > 200

    def test_classes_of_one_size_and_degree_that_do_not_swap(self):
        # {4, 5} and {6, 7} are twin classes of size 2 and degree 2 whose
        # edges meet hubs of degree 2 only, but swapping them fixes the hubs
        # and so maps (0, 4, 5) to (0, 6, 7), which is not an edge
        h = Hypergraph(10, ((0, 4, 5), (1, 4, 5), (2, 6, 7), (3, 6, 7), (0, 1, 8), (2, 3, 9)))
        cls, members, group = saturation._swap_groups(h)
        a, b = cls[4], cls[6]
        assert members[a] == [4, 5] and members[b] == [6, 7]
        assert h.degrees()[4] == h.degrees()[6] == 2
        assert group[a] != group[b]
        assert group[cls[0]] == group[cls[1]] != group[cls[2]]  # 0 and 1 do swap
        reps = orbit_representatives(h, 3)
        for f in (K3, K4, make_cycle(4), make_cycle(5)):
            expected = saturation_violations(h, f, 3)
            assert is_saturated(h, f, 3).violations_sat == expected
            bad = set(expected)
            assert is_saturated(h, f, 3, orbits=True).violations_sat == [t for t in reps if t in bad]
        present = h.edge_set()
        for ell in (3, 4):
            expected = [p for p in itertools.combinations(range(h.n), 2)
                        if p not in present and not engine.is_ell_good(h, *p, ell)]
            assert all_pairs_good(h, ell).failures == expected

    def test_probes_bounded_by_swap_group_pairs(self, probes):
        h = build_s(360, 3, 4)[0]
        assert is_saturated(h, K4, 3).saturated
        assert 0 < probes["probes"] <= 50
        probes.clear()
        report = all_pairs_good(h, 4)
        assert report.checked == count_missing_edges(h, 2)
        assert 0 < probes["probes"] <= 50


class TestLemmaReports:
    def test_tight_cycle_pairs(self):
        h, _ = build_c_k_4(3)
        report = all_pairs_good(h, 4)
        assert report.ok and report.good == report.checked == 10

    def test_bigger_seed_pairs(self):
        h, _ = build_c_k_ell(4, 5)
        report = all_pairs_good(h, 5)
        assert report.ok and report.checked == 15

    def test_single_edge_family_all_fail(self):
        h = Hypergraph(3, ((0, 1, 2),))
        report = all_pairs_good(h, 4)
        assert report.checked == 3 and report.good == 0
        assert len(report.failures) == 3

    def test_probe_pairs_exclude_existing_2_edges(self):
        h = Hypergraph(3, ((0, 1, 2), (0, 1)))
        report = all_pairs_good(h, 3)
        assert report.checked == 2  # (0,1) skipped

    def test_cores_tight_cycle(self):
        h, _ = build_c_k_4(3)
        report = all_cores_present(h, 4)
        assert report.ok and report.subset_size == 3

    def test_cores_ell5(self):
        h, _ = build_c_k_ell(3, 5)
        report = all_cores_present(h, 5)
        assert report.ok and report.checked == 5


def core_failures(h: Hypergraph, m: int) -> list[tuple[int, ...]]:
    """The m-sets that are the core set of no Berge K_m, by one public
    search per set."""
    f = make_clique(m)
    return [s for s in itertools.combinations(range(h.n), m)
            if find_berge_witness(f, h, SearchConstraints(required_core=s)) is None]


def canonical(groups):
    """The map from a set s to the member of its orbit that puts each swap
    group's counts, in non-increasing order, on the group's first classes,
    taking the first members of each."""
    cls, members, group = groups
    classes: dict[int, list[int]] = {}
    for c, g in enumerate(group):
        classes.setdefault(g, []).append(c)

    def member(s: tuple[int, ...]) -> tuple[int, ...]:
        counts = Counter(cls[v] for v in s)
        out = []
        for g in {group[c] for c in counts}:
            ps = sorted((counts[c] for c in classes[g] if c in counts), reverse=True)
            out += [v for c, p in zip(classes[g], ps) for v in members[c][:p]]
        return tuple(sorted(out))

    return member


def swap_hosts():
    """Hosts of the kinds ``TestSwapGroups`` checks: every sixth host of the
    twin corpus, random block hosts, and the host whose classes of one size
    and degree do not swap."""
    rng = random.Random(80)
    yield Hypergraph(10, ((0, 4, 5), (1, 4, 5), (2, 6, 7), (3, 6, 7), (0, 1, 8), (2, 3, 9)))
    for h, _, _ in itertools.islice(twin_corpus(), 0, None, 6):
        yield h
    for k in (2, 3, 4):
        for _ in range(12):
            yield block_host(rng, k)


class TestCoreCoverage:
    """``all_subsets_are_cores`` searches one m-set per swap-group orbit."""

    @pytest.fixture(scope="class")
    def tight_cycle(self):
        return build_c_k_4(3)[0]

    def test_tight_cycle_triples(self, tight_cycle):
        report = all_subsets_are_cores(tight_cycle, 3)
        assert report.ok and report.checked == 10

    def test_disjoint_edges_fail(self):
        h = Hypergraph(6, ((0, 1, 2), (3, 4, 5)))
        report = all_subsets_are_cores(h, 3)
        assert not report.ok and (0, 1, 3) in report.failures

    def test_subset_size_validated(self, tight_cycle):
        with pytest.raises(ValueError):
            all_subsets_are_cores(tight_cycle, 6)

    def test_failures_past_the_cap_are_refused(self, monkeypatch):
        # every one of the C(8, 3) = 56 triples of an empty host fails, and
        # its 8 twins make them one orbit
        empty = Hypergraph(8, ())
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", 56)
        assert len(all_subsets_are_cores(empty, 3).failures) == 56
        searches = [0]
        real_search = engine._search

        def counting(*args, **kwargs):
            searches[0] += 1
            return real_search(*args, **kwargs)

        monkeypatch.setattr(engine, "_search", counting)
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", 10)
        with pytest.raises(ValueError, match="^56 violations exceed the cap of 10$"):
            all_subsets_are_cores(empty, 3)
        assert searches[0] == 1  # the orbit is counted before anything is listed

    def test_sets_that_no_permutation_moves_count_toward_the_cap(self, monkeypatch):
        # a tight path has no twins and no two classes that swap, so every
        # failing triple is an orbit of its own: 32 of the 35 fail
        path = Hypergraph(7, ((0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6)))
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", 32)
        assert all_subsets_are_cores(path, 3).failures == core_failures(path, 3)
        monkeypatch.setattr(saturation, "MAX_VIOLATIONS", 31)
        with pytest.raises(ValueError, match="^32 violations exceed the cap of 31$"):
            all_subsets_are_cores(path, 3)

    def test_seed_families_match_the_reference(self):
        hosts = [(build_c_k_4(k)[0], 3) for k in (3, 4, 5)]
        hosts += [(build_c_k_ell(k, ell)[0], ell - 1) for k in (3, 4) for ell in (5, 6)]
        hosts += [(build_s(21, 3, 4)[0], 3), (build_s(22, 4, 5)[0], 4)]
        for h, m in hosts:
            report = all_subsets_are_cores(h, m)
            assert report.failures == core_failures(h, m)
            assert report.checked == comb(h.n, m)

    def test_hosts_with_twins_match_the_reference(self):
        rng = random.Random(81)
        hosts = list(swap_hosts())
        hosts += [twin_host(rng, (rng.choice((2, 3, 4)),)) for _ in range(60)]
        assert len(hosts) >= 100
        failed = 0
        for h in hosts:
            for m in (2, 3):
                report = all_subsets_are_cores(h, m)
                assert report.failures == core_failures(h, m)
                assert report.checked == comb(h.n, m)
                failed += len(report.failures)
        assert failed > 1000

    def test_one_canonical_representative_per_orbit(self, monkeypatch):
        merged = 0
        for h in swap_hosts():
            groups = saturation._swap_groups(h)
            merged += len(groups[1]) - len(set(groups[2]))
            for m in (1, 2, 3, 4):
                reps = [tuple(sorted(t)) for t in saturation._representatives(groups, m)]
                every = list(itertools.combinations(range(h.n), m))
                assert sorted(reps) == sorted(set(map(canonical(groups), every)))
                # the orbits list every m-set once, and their counted sizes add
                # up to C(n, m): the cap is passed only below that
                monkeypatch.setattr(saturation, "MAX_VIOLATIONS", len(every))
                assert saturation._expand(reps, groups) == every
                monkeypatch.setattr(saturation, "MAX_VIOLATIONS", len(every) - 1)
                with pytest.raises(ValueError, match=f"^{len(every)} violations exceed"):
                    saturation._expand(reps, groups)
        assert merged > 50  # many classes share a group with another


def s_minus_edges():
    """S(n, k, ell) hosts, each less a few seeded edges, with their K_ell."""
    rng = random.Random(83)
    for n, k, ell in ((21, 3, 4), (30, 3, 4), (22, 4, 5)):
        h = build_s(n, k, ell)[0]
        for removed in (1, 3):
            drop = set(rng.sample(range(len(h.edges)), removed))
            yield Hypergraph(h.n, tuple(e for i, e in enumerate(h.edges) if i not in drop)), k, ell


class TestOrbitWalk:
    """Full mode, orbit mode and ``all_pairs_good`` decide one set per orbit
    of the swap groups, walked by ``_representatives``."""

    def test_every_mode_and_worker_count_matches_the_reference(self):
        hosts = [(h, len(h.edges[0]), len(h.edges[0]) + 1) for h in swap_hosts()]
        hosts += list(s_minus_edges())
        merged = violations = 0
        for seed, (h, k, ell) in enumerate(hosts):
            groups = saturation._swap_groups(h)
            merged += len(groups[1]) - len(set(groups[2]))
            f = make_clique(ell)
            expected = saturation_violations(h, f, k)
            bad = set(expected)
            violations += len(expected)
            reps = orbit_representatives(h, k)
            picks = saturation._sample_missing(h, k, 40, seed)
            for jobs in (1, 2):
                assert is_saturated(h, f, k, jobs=jobs).violations_sat == expected
                orbit = is_saturated(h, f, k, jobs=jobs, orbits=True)
                assert orbit.violations_sat == [t for t in reps if t in bad]
                assert orbit.checked_missing == len(reps)
                sampled = is_saturated(h, f, k, jobs=jobs, sample=40, seed=seed)
                assert sampled.violations_sat == [t for t in picks if t in bad]
            if h.n <= 30:
                assert all_pairs_good(h, ell).failures == saturation_violations(h, f, 2)
        assert merged > 50 and violations > 1000

    @pytest.fixture
    def pair_keys(self, monkeypatch):
        """Counts ``_pair_key`` calls: the walk's prefix checks and the scan's
        lookups."""
        calls = Counter()
        real_pair_key = saturation._pair_key

        def counting(*args):
            calls["keys"] += 1
            return real_pair_key(*args)

        monkeypatch.setattr(saturation, "_pair_key", counting)
        return calls

    def test_walk_cost_does_not_grow_with_the_classes(self, pair_keys):
        # S(1000,3,4) has 504 twin classes in 8 swap groups; the walk visits
        # prefixes of orbits, so its pair keys are a few hundred (230 when
        # measured), while a walk over twin-class multisets took 10,603
        h = build_s(1000, 3, 4)[0]
        groups = saturation._swap_groups(h)
        assert (len(groups[1]), len(set(groups[2]))) == (504, 8)
        assert is_saturated(h, K4, 3).saturated
        assert 0 < pair_keys["keys"] <= 500
        pair_keys.clear()
        assert all_pairs_good(h, 4).checked == comb(1000, 2)
        assert 0 < pair_keys["keys"] <= 200

    def test_prefixes_through_a_good_pair_are_not_extended(self, pair_keys):
        # the C5 completion of a 60-vertex feedback host has 59 twin classes
        # in 44 swap groups; 9,032 pair keys when measured, 42,501 when every
        # prefix is extended
        c5 = make_cycle(5)
        h = greedy_saturate(build_h_feedback(60, 3, 2, c5)[0], c5, 3)
        pair_keys.clear()
        assert is_saturated(h, c5, 3).saturated
        assert 0 < pair_keys["keys"] <= 15_000
