import itertools
from math import comb

import pytest

from bergesat.core import Hypergraph, is_k_uniform
from bergesat.constructions import (
    SParameters,
    build_c_k_4,
    build_c_k_ell,
    build_h_feedback,
    build_h_min_deg,
    build_s,
    seed_vertex_count,
    solve_ab,
)
from bergesat.invariants import make_clique, make_cycle, make_path


def brute_force_ab(n, k, ell):
    """Independent oracle for the block-count equation."""
    rest = n - seed_vertex_count(k, ell) - 1
    found = [
        (a, b)
        for b in range(1, k)
        for a in range(rest + 1)
        if a * (k - 1) + b * (k - 2) == rest
    ]
    assert len(found) <= 1
    return SParameters(*found[0]) if found else None


class TestSeedFamilies:
    def test_tight_cycle_exact(self):
        h, labels = build_c_k_4(3)
        assert h.n == 5
        assert set(h.edges) == {(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 3, 4), (0, 1, 4)}
        assert labels.vertices_with_prefix("C(") == [0, 1, 2, 3, 4]

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_counts(self, k):
        h, labels = build_c_k_4(k)
        assert h.n == k + 2 and len(h.edges) == 5
        assert is_k_uniform(h, k)
        assert len(labels.vertices_with_prefix("D(")) == k - 3

    def test_every_edge_contains_tail(self):
        h, _ = build_c_k_4(4)
        assert all(5 in e for e in h.edges)

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            build_c_k_4(2)

    def test_ell5_exact(self):
        h, _ = build_c_k_ell(3, 5)
        assert h.n == 5 and len(h.edges) == 9
        # the pair {c2,c3} extends by c4
        assert (1, 2, 3) in h.edges

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("ell", [5, 6, 7])
    def test_ell_counts(self, k, ell):
        h, _ = build_c_k_ell(k, ell)
        assert h.n == k + ell - 3
        assert len(h.edges) == comb(ell, 2) - 1
        assert is_k_uniform(h, k)

    def test_ell5_k4_all_edges_share_tail(self):
        h, _ = build_c_k_ell(4, 5)
        assert all(5 in e for e in h.edges)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_c_k_ell(3, 4)
        with pytest.raises(ValueError):
            build_c_k_ell(2, 5)


class TestSolveAB:
    @pytest.mark.parametrize(
        "n,k,ell,expect",
        [(20, 3, 4, (6, 2)), (21, 3, 4, (7, 1)), (50, 4, 5, (13, 2))],
    )
    def test_known_values(self, n, k, ell, expect):
        params = solve_ab(n, k, ell)
        assert (params.a, params.b) == expect
        assert params == brute_force_ab(n, k, ell)

    def test_matches_oracle_on_range(self):
        for n in range(8, 60):
            for k in (3, 4, 5):
                oracle = brute_force_ab(n, k, 4)
                if oracle is None:
                    with pytest.raises(ValueError):
                        solve_ab(n, k, 4)
                else:
                    assert solve_ab(n, k, 4) == oracle

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            solve_ab(6, 3, 4)


class TestApexFamily:
    def test_edge_count_small(self):
        s20, _, p20 = build_s(20, 3, 4)
        s21, _, p21 = build_s(21, 3, 4)
        assert len(s20.edges) == 21  # n even: n + 1
        assert len(s21.edges) == 21  # n odd: n
        assert (p20.a, p20.b) == (6, 2) and (p21.a, p21.b) == (7, 1)

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("ell", [4, 5, 6])
    def test_structure_over_grid(self, k, ell):
        for n in range(10 * k * k * ell, 10 * k * k * ell + 60, 3):
            h, labels, params = build_s(n, k, ell)
            assert h.n == n
            assert is_k_uniform(h, k)
            expected = comb(ell, 2) - 1 + (params.a + params.b) * (ell - 2)
            assert len(h.edges) == expected

    def test_seed_edge_concentration(self):
        # exactly |seed| edges have two or more vertices among the seed
        s, labels, _ = build_s(30, 3, 4)
        seed_vertices = set(labels.vertices_with_prefix("C(")) | set(
            labels.vertices_with_prefix("D(")
        )
        heavy = sum(1 for e in s.edges if len(seed_vertices.intersection(e)) >= 2)
        assert heavy == comb(4, 2) - 1

    def test_apex_degree_and_neighbours(self):
        for n, k, ell in ((30, 3, 4), (50, 4, 5)):
            h, labels, params = build_s(n, k, ell)
            (apex,) = labels.vertices_with_prefix("APEX")
            deg = h.degrees()
            assert deg[apex] == params.b * (ell - 2)
            neighbours = {v for e in h.edges if apex in e for v in e} - {apex}
            strong = {v for v in neighbours if deg[v] >= ell - 1}
            assert strong == set(range(ell - 2))

    def test_labels_cover_all_roles(self):
        _, labels, params = build_s(21, 3, 4)
        assert len(labels.vertices_with_prefix("A(")) == params.a * 2
        assert len(labels.vertices_with_prefix("B(")) == params.b * 1
        assert len(labels.role_of) == 21


class TestMinDegFamily:
    def test_k4_instance(self):
        h, labels = build_h_min_deg(12, 3, make_clique(4))
        assert h.n == 12 and len(h.edges) == 10
        assert is_k_uniform(h, 3)
        assert len(labels.vertices_with_prefix("A(")) == 10  # 5 blocks of 2
        assert labels.vertices_with_prefix("T(") == []

    def test_blocks_meet_exactly_nu_edges(self):
        h, labels = build_h_min_deg(12, 3, make_clique(4))
        for i in range(1, 6):
            block = set(labels.vertices_with_prefix(f"A({i},"))
            touching = [e for e in h.edges if block & set(e)]
            assert len(touching) == 2

    def test_spares_are_isolated(self):
        h, labels = build_h_min_deg(13, 3, make_clique(4))
        spares = labels.vertices_with_prefix("T(")
        assert len(spares) == 1
        deg = h.degrees()
        assert all(deg[v] == 0 for v in spares)

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            build_h_min_deg(12, 3, make_clique(5))  # nu = 3 >= k
        with pytest.raises(ValueError):
            build_h_min_deg(12, 3, make_clique(2))  # nu = 0


class TestFeedbackFamily:
    def test_acyclic_pattern_gives_empty(self):
        h, _ = build_h_feedback(15, 3, 2, make_path(4))
        assert h.n == 15 and h.edges == ()

    def test_five_cycle_instance(self):
        with pytest.warns(UserWarning, match="stand-alone"):
            h, labels = build_h_feedback(40, 3, 3, make_cycle(5))
        assert h.n == 40
        assert len(h.edges) == 13  # (40 - 1) // 3 blocks, one edge each
        assert is_k_uniform(h, 3)
        assert labels.vertices_with_prefix("V1(") == [0]
        assert labels.vertices_with_prefix("V2(") == []

    def test_k4_instance(self):
        h, labels = build_h_feedback(13, 3, 2, make_clique(4))
        # feedback set {0,1} is adjacent: one padded 3-edge, then 5 blocks x 2
        assert len(labels.vertices_with_prefix("V2(")) == 1
        assert h.edges[0] == (0, 1, 2)
        assert len(h.edges) == 1 + 5 * 2

    def test_padding_vertices_have_degree_one(self):
        h, labels = build_h_feedback(13, 3, 2, make_clique(4))
        deg = h.degrees()
        for v in labels.vertices_with_prefix("V2("):
            assert deg[v] == 1

    def test_spares_remain_isolated(self):
        with pytest.warns(UserWarning):
            h, labels = build_h_feedback(41, 3, 3, make_cycle(5))
        spares = labels.vertices_with_prefix("T(")
        assert len(spares) == 1
        assert all(h.degrees()[v] == 0 for v in spares)

    def test_explicit_feedback_set(self):
        h, _ = build_h_feedback(13, 3, 2, make_clique(4), s=(2, 3))
        assert len(h.edges) == 1 + 5 * 2

    def test_invalid_feedback_set_rejected(self):
        with pytest.raises(ValueError):
            build_h_feedback(13, 3, 2, make_clique(4), s=(0,))

    def test_repeated_feedback_vertex_rejected(self):
        # counted twice, it used to double the edges and leave vertex 0 without a role
        assert len(build_h_feedback(20, 3, 2, make_cycle(5), s=(0,))[0].edges) == 9
        with pytest.raises(ValueError, match="repeats vertex 0"):
            build_h_feedback(20, 3, 2, make_cycle(5), s=(0, 0))
        with pytest.raises(ValueError, match="repeats vertex 2"):
            build_h_feedback(13, 3, 2, make_clique(4), s=(2, 3, 2))

    def test_hypothesis_violations(self):
        with pytest.raises(ValueError):
            build_h_feedback(40, 4, 1, make_cycle(5))  # a + f < k
        with pytest.raises(ValueError):
            build_h_feedback(3, 3, 3, make_cycle(5))  # too few vertices
        with pytest.raises(ValueError):
            build_h_feedback(40, 3, 0, make_cycle(5))
