"""Generators for the saturated hypergraph families, with labelled roles.

Vertex numbering is canonical throughout: hub/cycle vertices first, then the
shared-tail vertices, then attachment blocks in index order, then the apex,
then any isolated spares.  Each generator also returns a role tag per vertex
so tests and the CLI can reconstruct the block structure.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .core import Graph, Hypergraph
from .invariants import _is_acyclic_after_removal, feedback_number, independence_number


@dataclass
class ConstructionLabels:
    """Role tag per vertex, e.g. ``C(2)``, ``A(3,1)``, ``APEX``, ``T(1)``."""

    role_of: dict[int, str]

    def vertices_with_prefix(self, prefix: str) -> list[int]:
        return sorted(v for v, r in self.role_of.items() if r.startswith(prefix))

    def serialize(self) -> str:
        return "".join(f"{self.role_of[v]} {v}\n" for v in sorted(self.role_of))


@dataclass(frozen=True)
class SParameters:
    """Block counts for the apex construction: ``a`` full blocks of size k-1
    and ``b`` short blocks of size k-2."""

    a: int
    b: int


def build_c_k_4(k: int) -> tuple[Hypergraph, ConstructionLabels]:
    """Five k-edges on k+2 vertices: consecutive triples of a 5-cycle, each
    padded with the same k-3 shared tail vertices.

    For k=3 this is the 3-uniform tight cycle on 5 vertices.
    """
    if k < 3:
        raise ValueError("uniformity k must be at least 3")
    tail = tuple(range(5, k + 2))
    edges = tuple(
        tuple(sorted((i % 5, (i + 1) % 5, (i + 2) % 5) + tail)) for i in range(5)
    )
    roles = {i: f"C({i + 1})" for i in range(5)}
    roles.update({v: f"D({j + 1})" for j, v in enumerate(tail)})
    return Hypergraph(k + 2, edges), ConstructionLabels(roles)


def build_c_k_ell(k: int, ell: int) -> tuple[Hypergraph, ConstructionLabels]:
    """One k-edge per pair of an ``ell``-clique minus the pair {c1,c2}: each
    pair is padded to size k by one designated extra hub plus the shared
    tail, chosen so the edge family stays duplicate-free.

    ``ell*(ell-1)/2 - 1`` edges on ``k + ell - 3`` vertices.
    """
    if k < 3:
        raise ValueError("uniformity k must be at least 3")
    if ell < 5:
        raise ValueError("clique size must be at least 5 here; use build_c_k_4")
    tail = tuple(range(ell, ell + k - 3))
    edges = []
    for u, v in itertools.combinations(range(ell), 2):
        if (u, v) == (0, 1):
            continue
        pair = {u, v}
        if 0 in pair:  # c1 present, c2 absent
            extra = 1
        elif pair == {1, 2}:
            extra = 3
        elif pair == {1, 3}:
            extra = 4
        elif 1 in pair:  # c2 present; c1, c3, c4 absent
            extra = 2
        else:  # neither c1 nor c2
            extra = 0
        edges.append(tuple(sorted((u, v, extra) + tail)))
    roles = {i: f"C({i + 1})" for i in range(ell)}
    roles.update({v: f"D({j + 1})" for j, v in enumerate(tail)})
    return Hypergraph(k + ell - 3, tuple(edges)), ConstructionLabels(roles)


def seed_vertex_count(k: int, ell: int) -> int:
    """Vertex count of the seed family build_c_k_4 / build_c_k_ell."""
    if ell < 4:
        raise ValueError("clique size must be at least 4")
    return k + 2 if ell == 4 else k + ell - 3


def solve_ab(n: int, k: int, ell: int) -> SParameters:
    """Unique block counts with a(k-1) + b(k-2) = n - seed - 1 and
    1 <= b <= k-1; rejects when no nonnegative solution exists."""
    if k < 3:
        raise ValueError("uniformity k must be at least 3")
    rest = n - seed_vertex_count(k, ell) - 1
    b = (-rest) % (k - 1)
    if b == 0:
        b = k - 1
    a, rem = divmod(rest - b * (k - 2), k - 1)
    if rest < 0 or a < 0:
        raise ValueError(f"n={n} too small for k={k}, ell={ell}")
    assert rem == 0
    return SParameters(a, b)


def build_s(
    n: int, k: int, ell: int
) -> tuple[Hypergraph, ConstructionLabels, SParameters]:
    """Apex construction on n vertices: the seed family, ``a`` blocks of size
    k-1 each joined to every one of the first ell-2 hubs, and ``b`` blocks of
    size k-2 each joined to those hubs through one shared apex vertex."""
    params = solve_ab(n, k, ell)
    a, b = params.a, params.b
    seed, seed_labels = build_c_k_4(k) if ell == 4 else build_c_k_ell(k, ell)
    hubs = range(ell - 2)  # the first ell-2 cycle vertices
    apex = n - 1
    roles = dict(seed_labels.role_of)
    edges = list(seed.edges)
    cursor = seed.n
    for i in range(a):
        block = tuple(range(cursor, cursor + k - 1))
        cursor += k - 1
        for s, v in enumerate(block):
            roles[v] = f"A({i + 1},{s + 1})"
        for j in hubs:
            edges.append(tuple(sorted(block + (j,))))
    for i in range(b):
        block = tuple(range(cursor, cursor + k - 2))
        cursor += k - 2
        for s, v in enumerate(block):
            roles[v] = f"B({i + 1},{s + 1})"
        for j in hubs:
            edges.append(tuple(sorted(block + (apex, j))))
    assert cursor == apex
    roles[apex] = "APEX"
    return Hypergraph(n, tuple(edges)), ConstructionLabels(roles), params


def build_h_min_deg(n: int, k: int, f: Graph) -> tuple[Hypergraph, ConstructionLabels]:
    """Blocks-with-shared-core family used for dense patterns.

    With nu := |V(f)| - alpha(f) - 1, puts down a core of nu vertices and
    ``a`` blocks of size k - nu + 1; each block contributes the nu edges
    (core + block) minus one core vertex.  Leftover vertices stay isolated.
    """
    nu = f.n - independence_number(f) - 1
    if nu < 1:
        raise ValueError("pattern must have at least 2 more vertices than its independence number")
    if k <= nu:
        raise ValueError(f"uniformity k={k} must exceed nu={nu}")
    if n < nu:
        raise ValueError(f"n={n} too small")
    block_size = k - nu + 1
    a, t = divmod(n - nu, block_size)
    roles = {j: f"V1({j + 1})" for j in range(nu)}
    core = tuple(range(nu))
    edges = []
    cursor = nu
    for i in range(a):
        block = tuple(range(cursor, cursor + block_size))
        cursor += block_size
        for s, v in enumerate(block):
            roles[v] = f"A({i + 1},{s + 1})"
        for j in range(nu):
            edges.append(tuple(sorted(block + core[:j] + core[j + 1:])))
    for s in range(t):
        roles[cursor + s] = f"T({s + 1})"
    return Hypergraph(n, tuple(edges)), ConstructionLabels(roles)


def build_h_feedback(
    n: int, k: int, a: int, g: Graph, s: tuple[int, ...] | None = None
) -> tuple[Hypergraph, ConstructionLabels]:
    """Feedback-set family used for large-girth patterns.

    When ``g`` is acyclic the result is the empty hypergraph on n vertices.
    Otherwise the core holds one vertex per member of a minimum feedback set
    ``s`` of ``g``; a Berge copy of the subgraph induced on ``s`` is laid
    down using fresh degree-1 padding vertices, and the remaining vertices
    are split into blocks of size ``a``, each block getting every k-edge made
    of the block plus k-a core vertices.  Leftover vertices stay isolated.
    """
    if s is None:
        f, s = feedback_number(g)
    else:
        s = tuple(sorted(s))
        if any(not 0 <= v < g.n for v in s):
            raise ValueError("feedback set out of range")
        if twice := [v for v, w in zip(s, s[1:]) if v == w]:
            raise ValueError(f"feedback set repeats vertex {twice[0]}")
        if not _is_acyclic_after_removal(g, frozenset(s)):
            raise ValueError("supplied set is not a feedback set")
        f = len(s)
    if f == 0:
        roles = {v: f"T({v + 1})" for v in range(n)}
        return Hypergraph(n, ()), ConstructionLabels(roles)
    if not 1 <= a <= k:
        raise ValueError(f"block size a={a} must be in [1, k]")
    if a + f < k:
        raise ValueError(f"need a + feedback >= k (got {a}+{f} < {k})")
    induced = [(u, v) for u, v in g.edges if u in s and v in s]
    core_id = {v: i for i, v in enumerate(s)}
    pad_per_edge = k - 2
    pad_total = pad_per_edge * len(induced)
    if n < f + pad_total + a:
        raise ValueError(f"n={n} too small for at least one block")
    if a == k:
        warnings.warn(
            f"block size a={a} equals the uniformity; blocks become stand-alone edges",
            stacklevel=2,
        )
    roles = {core_id[v]: f"V1({core_id[v] + 1})" for v in s}
    edges = []
    cursor = f
    for u, v in sorted(induced):
        pad = tuple(range(cursor, cursor + pad_per_edge))
        cursor += pad_per_edge
        edges.append(tuple(sorted((core_id[u], core_id[v]) + pad)))
    for i, v in enumerate(range(f, f + pad_total)):
        roles[v] = f"V2({i + 1})"
    remaining = n - cursor
    blocks, spares = divmod(remaining, a)
    core = tuple(range(f))
    for i in range(blocks):
        block = tuple(range(cursor, cursor + a))
        cursor += a
        for pos, v in enumerate(block):
            roles[v] = f"V3({i + 1},{pos + 1})"
        for subset in itertools.combinations(core, k - a):
            edges.append(tuple(sorted(block + subset)))
    for pos in range(spares):
        roles[cursor + pos] = f"T({pos + 1})"
    return Hypergraph(n, tuple(edges)), ConstructionLabels(roles)
