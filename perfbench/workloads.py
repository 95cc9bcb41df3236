"""The benchmark's three workloads: inputs, operations and correctness checks.

A workload builds its inputs from the seed in ``setup`` and exposes a fixed
list of operations; one pass runs every operation once, in order.  Each
operation returns a text output.  ``check`` judges the outputs of one pass
with checks independent of the operation that produced them, and returns the
indices of the operations that failed.

Every operation runs at ``jobs=1`` in this process, and the library is
always reached through its module attributes (``engine.find_berge_witness``,
never a name imported into this file), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import io
import json
import random
import re
import statistics
from contextlib import redirect_stderr, redirect_stdout
from math import comb
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

from bergesat import cli, core, engine, invariants, oracle, saturation
from stats import tail_percentile

DEFAULT_SEED = 1


class CheckFailed(Exception):
    """An output failed one of the benchmark's correctness checks."""


def _expect(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Op(NamedTuple):
    name: str  # unique within the workload
    kind: str  # breakdown group, e.g. "full" or "greedy"
    fn: Callable[[], str]
    digest_key: str  # ops sharing a key are digested together, in order
    seed_independent: bool  # the digest is checked on every seed
    meta: tuple = ()


def run_cli(argv: list[str]) -> str:
    """Run ``bergesat`` in this process; returns ``"exit <code>\\n" + stdout``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}"


def parse_cli(output: str) -> tuple[int, dict]:
    head, _, body = output.partition("\n")
    return int(head.split()[1]), json.loads(body)


def gen_s(workdir: Path, n: int, k: int, ell: int) -> tuple[Path, dict[int, str]]:
    """Write S(n,k,ell) with ``gen s``; returns the file and the vertex roles."""
    path = workdir / f"s{n}_{k}_{ell}.hg"
    labels = workdir / f"s{n}_{k}_{ell}.labels"
    output = run_cli(["gen", "s", "--n", str(n), "--k", str(k), "--ell", str(ell),
                      "-o", str(path), "--labels", str(labels)])
    if not output.startswith("exit 0\n"):
        raise RuntimeError(f"gen s failed: {output!r}")
    roles = {}
    for line in labels.read_text(encoding="utf-8").splitlines():
        role, vertex = line.split()
        roles[int(vertex)] = role
    return path, roles


def read_hypergraph(path: Path) -> core.Hypergraph:
    return core.parse_hypergraph(path.read_text(encoding="utf-8"))


_CORE_LINE = re.compile(r"(\d+)->(\d+)")
_EDGE_LINE = re.compile(r"edge: \{(\d+),(\d+)\} -> \{([\d,]+)\}")


def parse_witness(text: str) -> engine.BergeWitness:
    """Inverse of ``BergeWitness.serialize``."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("core:"):
        raise ValueError("witness text has no core line")
    core_map = {int(x): int(w) for x, w in _CORE_LINE.findall(lines[0])}
    edge_map = {}
    for line in lines[1:]:
        m = _EDGE_LINE.fullmatch(line)
        if m is None:
            raise ValueError(f"bad witness line {line!r}")
        edge_map[(int(m[1]), int(m[2]))] = tuple(int(v) for v in m[3].split(","))
    return engine.BergeWitness(core_map, edge_map)


def _sorted_unique(items: list) -> bool:
    return all(a < b for a, b in zip(items, items[1:]))


# ---------------------------------------------------------------------------
# certify: the CLI's saturation certificate and lemma check


class Certify:
    """``check saturated`` (full, orbits, sampled) and ``verify-lemma
    pairs-good`` through ``bergesat.cli.main`` on files written by ``gen s``:
    a saturated S(n,3,4), a saturated S(n,4,5), and one-edge-removed
    variants of the S(n,3,4) file."""

    name = "certify"
    S3_N = 45
    S4_N = 22
    BROKEN = 2
    SAMPLE = 2000
    CONFIRM = 6  # violations / lemma pairs re-checked per file, outside timing

    def setup(self, workdir: Path, seed: int) -> None:
        rng = random.Random(f"certify-{seed}")
        s3, roles = gen_s(workdir, self.S3_N, 3, 4)
        s4, _ = gen_s(workdir, self.S4_N, 4, 5)
        h3 = read_hypergraph(s3)
        # Remove edges joining an A-block to a hub: every such removal gives
        # an isomorphic instance with hundreds of violations, so the seed
        # changes which probes fail but not how many.
        block_edges = [
            e for e in h3.edges
            if all(roles[v].startswith("A(") or roles[v].startswith("C(") for v in e)
            and sum(roles[v].startswith("A(") for v in e) == 2
        ]
        files = {"s3": (s3, 3, 4), "s4": (s4, 4, 5)}
        for i, removed in enumerate(rng.sample(block_edges, self.BROKEN), start=1):
            broken = core.Hypergraph(h3.n, tuple(e for e in h3.edges if e != removed))
            path = workdir / f"b{i}.hg"
            path.write_text(core.serialize_hypergraph(broken), encoding="utf-8")
            files[f"b{i}"] = (path, 3, 4)
        self.sample_seed = rng.randrange(10**6)
        self.files = files
        self.hosts = {key: read_hypergraph(path) for key, (path, _, _) in files.items()}

        self.ops: list[Op] = []
        for key, (path, k, ell) in files.items():
            fixed = not key.startswith("b")
            base = ["check", "saturated", "--hgraph", str(path),
                    "--clique", str(ell), "--k", str(k)]
            modes = [
                ("full", base, fixed),
                ("orbits", base + ["--orbits"], fixed),
                ("sampled", base + ["--sample", str(self.SAMPLE),
                                    "--seed", str(self.sample_seed)], False),
                ("lemma", ["verify-lemma", "pairs-good", "--hgraph", str(path),
                           "--ell", str(ell)], fixed),
            ]
            for mode, argv, independent in modes:
                name = f"{mode}:{key}"
                self.ops.append(Op(name, mode, lambda argv=argv: run_cli(argv), name,
                                   independent, (key,)))
        # warm-up: imports, argument parsing and one small probe batch
        run_cli(["check", "saturated", "--hgraph", str(s3), "--clique", "4",
                 "--k", "3", "--sample", "50", "--seed", "0"])

    def check(self, outputs: list[str], seed: int) -> dict[int, str]:
        bad: dict[int, str] = {}
        rng = random.Random(f"certify-check-{seed}")
        parsed = {}
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            try:
                parsed[op.name] = parse_cli(out)
            except (ValueError, IndexError) as exc:
                bad[i] = f"unparseable output: {exc}"
        for i, op in enumerate(self.ops):
            if i in bad:
                continue
            key = op.meta[0]
            _, k, ell = self.files[key]
            h = self.hosts[key]
            code, rep = parsed[op.name]
            try:
                self._check_one(op.kind, key, k, ell, h, code, rep, parsed, rng)
            except CheckFailed as exc:
                bad[i] = f"{op.name}: {exc}"
        return bad

    def _check_one(self, kind, key, k, ell, h, code, rep, parsed, rng) -> None:
        broken = key.startswith("b")
        f = invariants.make_clique(ell)
        missing = core.count_missing_edges(h, k)
        if kind == "lemma":
            pairs = comb(h.n, 2) - sum(1 for e in h.edges if len(e) == 2)
            _expect(rep["checked"] == pairs, "lemma checked count")
            _expect(rep["good"] + len(rep["failures"]) == pairs, "lemma good + failures")
            failures = [tuple(p) for p in rep["failures"]]
            _expect(_sorted_unique(failures), "lemma failures not sorted")
            _expect(code == (0 if not failures else 1), "lemma exit code")
            bad_set = set(failures)
            for u, v in rng.sample(failures, min(self.CONFIRM, len(failures))):
                _expect(not engine.is_ell_good(h, u, v, ell), f"pair {u},{v} is good")
            goods = [p for p in ((u, v) for u in range(h.n) for v in range(u + 1, h.n))
                     if p not in bad_set]
            for u, v in rng.sample(goods, min(self.CONFIRM, len(goods))):
                _expect(engine.is_ell_good(h, u, v, ell), f"pair {u},{v} is not good")
            return
        _expect(rep["is_free"] is True and rep["violations_free"] == [], "not Berge-free")
        violations = [tuple(t) for t in rep["violations_sat"]]
        _expect(_sorted_unique(violations), "violations not sorted")
        present = h.edge_set()
        _expect(all(len(t) == k and t not in present for t in violations),
                "violation is not a missing k-set")
        _expect(code == (0 if not violations else 1), "exit code")
        if kind == "full":
            _expect(rep["mode"] == "full", "mode")
            _expect(rep["checked_missing"] == missing, "checked_missing")
            if broken:
                _expect(violations and rep["saturated"] is False, "broken file certified")
                for t in rng.sample(violations, min(self.CONFIRM, len(violations))):
                    _expect(not engine.creates_new_berge(h, t, f),
                            f"reported violation {t} creates a copy")
            else:
                _expect(rep["saturated"] is True and not violations, "S not saturated")
            return
        _expect(f"full:{key}" in parsed, "no full-mode report to compare with")
        full = parsed[f"full:{key}"][1]
        _expect(set(violations) <= {tuple(t) for t in full["violations_sat"]},
                "violation unknown to full mode")
        _expect(rep["saturated"] is False, "non-full mode certified")
        if kind == "orbits":
            _expect(rep["mode"] == "orbits" and rep["reduction_factor"] >= 1, "orbit report")
        else:
            _expect(rep["mode"] == "sampled", "mode")
            _expect(rep["sample_count"] == self.SAMPLE and
                    rep["sample_seed"] == self.sample_seed, "sample parameters")
            _expect(rep["checked_missing"] == min(self.SAMPLE, missing), "sample size")

    def breakdown(self, outputs: list[str], samples: list[list[float]]) -> dict:
        by_kind: dict[str, float] = {}
        checked = 0
        for op, out, secs in zip(self.ops, outputs, samples):
            by_kind[op.kind] = by_kind.get(op.kind, 0.0) + statistics.median(secs)
            if op.kind == "full":
                checked += parse_cli(out)[1]["checked_missing"]
        return {
            "full_s": (by_kind["full"], "s"),
            "ksets_per_s": (checked / by_kind["full"], "1/s"),
            "orbits_s": (by_kind["orbits"], "s"),
            "sampled_s": (by_kind["sampled"], "s"),
            "lemma_s": (by_kind["lemma"], "s"),
        }


# ---------------------------------------------------------------------------
# query: one caller, closed loop, containment queries over a host pool


def _named_patterns() -> dict[str, core.Graph]:
    return {
        "K3": invariants.make_clique(3),
        "K4": invariants.make_clique(4),
        "K5": invariants.make_clique(5),
        "C4": invariants.make_cycle(4),
        "C5": invariants.make_cycle(5),
        "P5": invariants.make_path(5),
        "K4-e": core.Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))),
        "K23": core.Graph(5, ((0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4))),
    }


def random_host(rng: random.Random, n: int, m: int, sizes: tuple[int, ...]) -> core.Hypergraph:
    edges: set[tuple[int, ...]] = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), rng.choice(sizes)))))
    return core.Hypergraph(n, tuple(sorted(edges)))


def relabel(h: core.Hypergraph, perm: list[int]) -> core.Hypergraph:
    return core.Hypergraph(h.n, tuple(sorted(tuple(sorted(perm[v] for v in e))
                                             for e in h.edges)))


class Query:
    """Closed loop, one caller: each query starts when the previous one
    returns.  Queries are ``find_berge_witness`` (plain, ``required_core``,
    ``forbidden_core``, ``required_edge``) and ``is_berge_free`` for every
    pattern over a pool of hosts: S constructions, which are Berge-free for
    their clique, random mixed-size hosts, and tiny hosts that
    ``berge_oracle`` can cross-check.

    A constraint can turn one query into a long exhaustive search (a
    required vertex that no copy passes through) or leave it trivial, so
    drawing hosts and constraints afresh per seed would make the pass time a
    matter of luck.  The pool and its constraints are drawn once; the seed
    relabels the vertices of every host except the two large S hosts, and
    the constraints with them.  Seeds then differ in vertex ids and so in
    the search's tie-breaks, not in how much work a pass holds.  The large
    S hosts keep their ids and get unconstrained queries only, so their
    answers are checked against recorded digests on every seed.
    """

    name = "query"
    S3_N = 45
    S4_N = 22
    SMALL_S_N = 20
    RANDOM_HOSTS = 8  # n=14, 24 edges of sizes 2..4
    TINY_HOSTS = 4  # n=6, 7 edges of sizes 2..3: small enough for berge_oracle
    PLAIN = ("witness", "free")
    CONSTRAINED = ("rcore", "fcore", "redge")
    DRAWS = 4  # constraints per constrained kind, host and pattern

    def setup(self, workdir: Path, seed: int) -> None:
        pool_rng = random.Random("query-pool")
        rng = random.Random(f"query-{seed}")
        fixed = {
            "S3": read_hypergraph(gen_s(workdir, self.S3_N, 3, 4)[0]),
            "S4": read_hypergraph(gen_s(workdir, self.S4_N, 4, 5)[0]),
        }
        pool = {"s3": read_hypergraph(gen_s(workdir, self.SMALL_S_N, 3, 4)[0])}
        for i in range(self.RANDOM_HOSTS):
            pool[f"R{i}"] = random_host(pool_rng, 14, 24, (2, 3, 3, 4))
        for i in range(self.TINY_HOSTS):
            pool[f"T{i}"] = random_host(pool_rng, 6, 7, (2, 3))
        self.patterns = _named_patterns()
        self.hosts = dict(fixed)
        self.ops: list[Op] = []
        for hname, h in fixed.items():
            for pname, f in self.patterns.items():
                for kind in self.PLAIN:
                    self.ops.append(Op(f"{hname}:{pname}:{kind}", kind,
                                       self._query(kind, f, h, None), hname, True,
                                       (hname, pname, None)))
        for hname, base in pool.items():
            perm = list(range(base.n))
            rng.shuffle(perm)
            h = self.hosts[hname] = relabel(base, perm)
            for pname, f in self.patterns.items():
                for kind in self.PLAIN:
                    self.ops.append(Op(f"{hname}:{pname}:{kind}", kind,
                                       self._query(kind, f, h, None), hname, False,
                                       (hname, pname, None)))
                for kind in self.CONSTRAINED:
                    for draw in range(self.DRAWS):
                        c = self._constraints(kind, base, pool_rng, perm)
                        self.ops.append(Op(f"{hname}:{pname}:{kind}{draw}", kind,
                                           self._query(kind, f, h, c), hname, False,
                                           (hname, pname, c)))
        for op in self.ops[:20]:  # warm-up
            op.fn()

    @staticmethod
    def _constraints(kind: str, base: core.Hypergraph, rng: random.Random, perm: list[int]):
        """A constraint drawn on ``base``, mapped through ``perm``."""
        if kind == "rcore":
            picked = rng.sample(range(base.n), rng.choice((1, 2)))
            return engine.SearchConstraints(required_core=frozenset(perm[v] for v in picked))
        if kind == "fcore":
            picked = rng.sample(range(base.n), rng.choice((1, 2, 3)))
            return engine.SearchConstraints(forbidden_core=frozenset(perm[v] for v in picked))
        edge = rng.choice(base.edges)
        return engine.SearchConstraints(required_edge=tuple(perm[v] for v in edge))

    @staticmethod
    def _query(kind: str, f: core.Graph, h: core.Hypergraph, c) -> Callable[[], str]:
        if kind == "free":
            def run() -> str:
                free, w = saturation.is_berge_free(h, f)
                return "free\n" if free else w.serialize()
            return run

        def run() -> str:
            w = engine.find_berge_witness(f, h, c)
            return "none\n" if w is None else w.serialize()
        return run

    def check(self, outputs: list[str], seed: int) -> dict[int, str]:
        bad: dict[int, str] = {}
        self.validate_seconds: list[float] = []
        answers: dict[tuple[str, str], set[bool]] = {}
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            hname, pname, c = op.meta
            h, f = self.hosts[hname], self.patterns[pname]
            found = out not in ("none\n", "free\n")
            try:
                if found:
                    w = parse_witness(out)
                    start = perf_counter()
                    engine.validate_witness(f, h, w)
                    self.validate_seconds.append(perf_counter() - start)
                    image = set(w.core_map.values())
                    if c is not None:
                        _expect(c.required_core <= image, "required core not covered")
                        _expect(not c.forbidden_core & image, "forbidden core used")
                        _expect(c.required_edge is None
                                or c.required_edge in w.edge_map.values(),
                                "required edge unused")
                elif op.kind == "free":
                    _expect(out == "free\n", "bad is_berge_free answer")
                else:
                    _expect(out == "none\n", "bad find_berge_witness answer")
                if c is None:
                    answers.setdefault((hname, pname), set()).add(found)
                    if hname.startswith("T") and len(f.edges) <= oracle.MAX_ORACLE_PATTERN_EDGES:
                        _expect(oracle.berge_oracle(f, h) == found, "disagrees with berge_oracle")
            except (CheckFailed, ValueError) as exc:
                bad[i] = f"{op.name}: {exc}"
        for i, op in enumerate(self.ops):
            hname, pname, c = op.meta
            if c is None and len(answers.get((hname, pname), ())) > 1:
                bad.setdefault(i, f"{op.name}: is_berge_free and find_berge_witness disagree")
        return bad

    def breakdown(self, outputs: list[str], samples: list[list[float]]) -> dict:
        flat = [s for secs in samples for s in secs]
        level, p90 = tail_percentile(flat, cap=90)
        return {
            "p50_ms": (statistics.median(flat) * 1e3, "ms"),
            "p90_ms": (p90 * 1e3, "ms"),
            "p90_level": (level, "percentile"),
            "latency_samples": (len(flat), "count"),
            "qps": (len(flat) / sum(flat), "1/s"),
        }


# ---------------------------------------------------------------------------
# search: greedy completion and exhaustive minimum-saturation search


class Search:
    """``greedy_saturate`` with K4 and C5 (k=3), in lexicographic order from
    a sparse start and from the empty family in shuffled orders, plus
    ``min_saturation_search`` for (n=6, k=3, K3, m<=4) with and without
    isomorph rejection.

    How long greedy runs depends on the order more than on anything else,
    so the starts and orders are drawn once and the seed relabels the
    vertices of each shuffled order.  Every seed then runs isomorphic
    shuffled completions, which differ in vertex ids, not in size.  The
    lexicographic runs would not stay isomorphic under a relabelling, so
    they use the fixed start unchanged and are checked against recorded
    digests on every seed.
    """

    name = "search"
    LEX_N = {"K4": 22, "C5": 18}
    SHUFFLE_N = 12
    SHUFFLES = 4  # per pattern
    START_EDGES = 3
    SPOT_CHECKS = 12  # missing k-sets re-probed per greedy result

    def setup(self, workdir: Path, seed: int) -> None:
        pool_rng = random.Random("search-pool")
        rng = random.Random(f"search-{seed}")
        self.patterns = {"K4": invariants.make_clique(4), "C5": invariants.make_cycle(5)}
        self.starts: dict[str, core.Hypergraph] = {}
        self.ops: list[Op] = []
        empty = core.Hypergraph(self.SHUFFLE_N, ())
        for pname, f in self.patterns.items():
            n = self.LEX_N[pname]
            start = core.Hypergraph(n, tuple(sorted(
                {tuple(sorted(pool_rng.sample(range(n), 3))) for _ in range(self.START_EDGES)})))
            self.starts[f"lex:{pname}"] = start
            self.ops.append(Op(f"greedy-lex:{pname}", "greedy", self._greedy(start, f, None),
                               f"greedy-lex:{pname}", True, (f"lex:{pname}", pname)))
            for i in range(self.SHUFFLES):
                order = list(core.missing_edges(empty, 3))
                pool_rng.shuffle(order)
                perm = list(range(self.SHUFFLE_N))
                rng.shuffle(perm)
                order = [tuple(sorted(perm[v] for v in e)) for e in order]
                self.starts[f"shuffle{i}:{pname}"] = empty
                name = f"greedy-shuffle{i}:{pname}"
                self.ops.append(Op(name, "greedy", self._greedy(empty, f, order), name,
                                   False, (f"shuffle{i}:{pname}", pname)))
        k3 = invariants.make_clique(3)
        for iso in (False, True):
            name = "minsat-iso" if iso else "minsat"
            self.ops.append(Op(name, "minsat", self._minsat(6, 3, k3, 4, iso), name, True,
                               ("minsat", "K3")))
        oracle.greedy_saturate(core.Hypergraph(7, ()), self.patterns["K4"], 3)  # warm-up

    @staticmethod
    def _greedy(start, f, order) -> Callable[[], str]:
        def run() -> str:
            return core.serialize_hypergraph(oracle.greedy_saturate(start, f, 3, order))
        return run

    @staticmethod
    def _minsat(n, k, f, m_max, iso) -> Callable[[], str]:
        def run() -> str:
            r = oracle.min_saturation_search(n, k, f, m_max, isomorph_reject=iso)
            return f"m_star {r.m_star}\nexamined {r.examined}\n" + \
                core.serialize_hypergraph(r.witness_h)
        return run

    def check(self, outputs: list[str], seed: int) -> dict[int, str]:
        bad: dict[int, str] = {}
        rng = random.Random(f"search-check-{seed}")
        minsat = {}
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            try:
                if op.kind == "minsat":
                    m_line, _, witness = out.split("\n", 2)
                    minsat[op.name] = (m_line, witness)
                    h = core.parse_hypergraph(witness)
                    report = saturation.is_saturated(h, invariants.make_clique(3), 3)
                    _expect(report.saturated, "minsat witness not saturated")
                    continue
                start_key, pname = op.meta
                f, start = self.patterns[pname], self.starts[start_key]
                h = core.parse_hypergraph(out)
                _expect(h.n == start.n and set(start.edges) <= set(h.edges),
                        "result lost start edges")
                _expect(core.is_k_uniform(h, 3), "result not 3-uniform")
                _expect(engine.find_berge_witness(f, h) is None, "result not Berge-free")
                missing = list(core.missing_edges(h, 3))
                for t in rng.sample(missing, min(self.SPOT_CHECKS, len(missing))):
                    _expect(engine.creates_new_berge(h, t, f), f"{t} can still be added")
            except (CheckFailed, ValueError) as exc:
                bad[i] = f"{op.name}: {exc}"
        if len(set(minsat.values())) != 1:
            for i, op in enumerate(self.ops):
                if op.kind == "minsat":
                    bad.setdefault(i, "isomorph rejection changed the result")
        return bad

    def breakdown(self, outputs: list[str], samples: list[list[float]]) -> dict:
        per_op = [statistics.median(secs) for secs in samples]
        greedy = sum(s for op, s in zip(self.ops, per_op) if op.kind == "greedy")
        minsat = sum(s for op, s in zip(self.ops, per_op) if op.kind == "minsat")
        return {"greedy_s": (greedy, "s"), "minsat_s": (minsat, "s")}


WORKLOADS = {w.name: w for w in (Certify, Query, Search)}
