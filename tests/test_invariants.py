import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergesat import invariants
from bergesat.core import Graph
from bergesat.invariants import (
    complete_join,
    compute_invariants,
    feedback_number,
    girth,
    independence_number,
    make_clique,
    make_cycle,
    make_path,
    make_star,
    min_degree,
    vertex_cover_number,
)


def brute_force_alpha(g: Graph) -> int:
    """Independent oracle: try every vertex subset."""
    adj = g.adjacency()
    best = 0
    for size in range(g.n, 0, -1):
        for subset in itertools.combinations(range(g.n), size):
            chosen = set(subset)
            if all(not (adj[u] & chosen) for u in subset):
                return size
    return best


class TestIndependence:
    @pytest.mark.parametrize("size", [3, 4, 5, 6])
    def test_cliques(self, size):
        assert independence_number(make_clique(size)) == 1

    @pytest.mark.parametrize("leaves", [2, 3, 5])
    def test_stars(self, leaves):
        assert independence_number(make_star(leaves)) == leaves

    def test_five_cycle_matches_enumeration(self):
        c5 = make_cycle(5)
        assert independence_number(c5) == brute_force_alpha(c5) == 2

    def test_size_cap(self):
        with pytest.raises(ValueError):
            independence_number(Graph(33, ((0, 1),)))


class TestVertexCover:
    def test_k4(self):
        assert vertex_cover_number(make_clique(4)) == 3

    def test_k2(self):
        assert vertex_cover_number(make_clique(2)) == 1

    def test_five_cycle(self):
        # 5 - alpha = 3, cross-checked exhaustively below via Gallai test
        assert vertex_cover_number(make_cycle(5)) == 3

    def test_edgeless(self):
        assert vertex_cover_number(Graph(3)) == 0


class TestGirth:
    @pytest.mark.parametrize("length", range(3, 13))
    def test_cycles(self, length):
        assert girth(make_cycle(length)) == length

    def test_clique(self):
        assert girth(make_clique(4)) == 3

    def test_path_acyclic(self):
        assert girth(make_path(4)) is None

    def test_cycle_with_chord(self):
        g = Graph(5, tuple(make_cycle(5).edges) + ((0, 2),))
        assert girth(g) == 3

    def test_two_components(self):
        edges = tuple(make_cycle(5).edges) + tuple(
            (u + 5, v + 5) for u, v in make_cycle(4).edges
        )
        assert girth(Graph(9, edges)) == 4


class TestFeedback:
    def test_tree(self):
        assert feedback_number(make_path(5)) == (0, ())

    def test_five_cycle(self):
        f, s = feedback_number(make_cycle(5))
        assert f == 1 and s == (0,)  # lexicographically least

    def test_k4_needs_two(self):
        g = make_clique(4)
        # independently: no single vertex suffices, some pair does
        singles = [
            feedback_set_works(g, {v}) for v in range(4)
        ]
        assert not any(singles)
        f, s = feedback_number(g)
        assert f == 2 and s == (0, 1)
        assert feedback_set_works(g, set(s))

    def test_deleting_returned_set_is_acyclic(self):
        for g in (make_cycle(6), make_clique(5), complete_join(make_clique(2), make_cycle(4))):
            f, s = feedback_number(g)
            assert feedback_set_works(g, set(s))
            for smaller in itertools.combinations(range(g.n), f - 1):
                assert not feedback_set_works(g, set(smaller))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            feedback_number(Graph(25, ((0, 1),)))


def feedback_set_works(g: Graph, removed: set[int]) -> bool:
    """Independent acyclicity oracle: DFS cycle detection."""
    adj = g.adjacency()
    seen: set[int] = set()
    for start in range(g.n):
        if start in removed or start in seen:
            continue
        stack = [(start, -1)]
        seen.add(start)
        while stack:
            u, parent = stack.pop()
            skipped_parent = False
            for w in adj[u]:
                if w in removed:
                    continue
                if w == parent and not skipped_parent:
                    skipped_parent = True
                    continue
                if w in seen:
                    return False
                seen.add(w)
                stack.append((w, u))
    return True


class TestGenerators:
    def test_min_degree(self):
        assert min_degree(make_clique(4)) == 3
        assert min_degree(make_star(3)) == 1
        assert min_degree(make_cycle(5)) == 2

    def test_clique_edge_count(self):
        assert len(make_clique(4).edges) == 6

    def test_join_star_equivalence(self):
        lone = Graph(1, ())
        cofree = Graph(3, ())
        star = complete_join(lone, cofree)
        assert sorted(star.edges) == sorted(make_star(3).edges)

    def test_join_edge_count_example(self):
        joined = complete_join(make_clique(2), Graph(3, ()))
        assert len(joined.edges) == 1 + 0 + 2 * 3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_clique(1)
        with pytest.raises(ValueError):
            make_cycle(2)
        with pytest.raises(ValueError):
            make_star(1)


def test_invariant_report_five_cycle():
    rep = compute_invariants(make_cycle(5))
    assert (rep.alpha, rep.beta, rep.delta) == (2, 3, 2)
    assert rep.girth == 5
    assert rep.feedback == 1 and rep.feedback_set == (0,)


def test_invariants_refuse_past_the_feedback_cap_before_any_search(monkeypatch):
    """K25 is past the feedback cap only; any other solver would search it."""
    def searched(g):
        raise AssertionError("a solver ran before the feedback cap was checked")

    for name in ("independence_number", "vertex_cover_number", "min_degree", "girth"):
        monkeypatch.setattr(invariants, name, searched)
    with pytest.raises(ValueError, match=r"graph too large for exhaustive search \(n=25\)"):
        compute_invariants(make_clique(25))


# -- randomized properties ---------------------------------------------------

small_graphs = st.integers(2, 8).flatmap(
    lambda n: st.builds(
        lambda edges: Graph(n, tuple(edges)),
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ).map(lambda p: (min(p), max(p))),
            max_size=10,
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(small_graphs)
def test_gallai_identity(g):
    assert independence_number(g) + vertex_cover_number(g) == g.n
    assert compute_invariants(g).beta == vertex_cover_number(g)


@settings(max_examples=40, deadline=None)
@given(small_graphs, small_graphs)
def test_join_edge_count_formula(f, g):
    joined = complete_join(f, g)
    assert len(joined.edges) == len(f.edges) + len(g.edges) + f.n * g.n
