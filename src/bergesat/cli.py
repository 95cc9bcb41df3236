"""Command-line interface.

One JSON object per invocation goes to stdout (stable keys, sorted, no
timing), human-readable notes go to stderr.  Exit codes: 0 when the checked
property holds or generation succeeded, 1 when the property fails, 2 on
usage or input errors, on an internal failure, when memory runs out and on
Ctrl-C.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import constructions, engine, invariants, oracle, saturation
from .core import (
    Graph,
    Hypergraph,
    ParseError,
    parse_graph,
    parse_hypergraph,
    serialize_hypergraph,
)

EXIT_OK = 0
EXIT_PROPERTY_FAILS = 1
EXIT_ERROR = 2


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _note(text: str) -> None:
    sys.stderr.write(text + "\n")


def _read_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _read_hypergraph(path: str) -> Hypergraph:
    with open(path, encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated id list: {text!r}")


def _pattern_from(args) -> Graph:
    if args.clique is not None:
        return invariants.make_clique(args.clique)
    return _read_graph(args.graph)


def _generated(args, h: Hypergraph, labels, **fields) -> int:
    """The tail every generator shares: write, report, note."""
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_hypergraph(h))
    if args.labels:
        with open(args.labels, "w", encoding="utf-8") as fh:
            fh.write(labels.serialize())
    _emit({"n": h.n, "edge_count": len(h.edges), "k": args.k, "output": args.output,
           **fields})
    _note(f"wrote {args.output}")
    return EXIT_OK


def _gen_c(args) -> int:
    _, build = constructions.seed_family(args.k, args.ell)
    return _generated(args, *build(), ell=args.ell)


def _gen_s(args) -> int:
    h, labels, params = constructions.build_s(args.n, args.k, args.ell)
    return _generated(args, h, labels, ell=args.ell, a=params.a, b=params.b)


def _gen_mindeg(args) -> int:
    f = _read_graph(args.graph)
    return _generated(args, *constructions.build_h_min_deg(args.n, args.k, f))


def _gen_feedback(args) -> int:
    f = _read_graph(args.graph)
    h, labels = constructions.build_h_feedback(args.n, args.k, args.a, f, args.feedback_set)
    return _generated(args, h, labels, a=args.a)


def _check_contains(args) -> int:
    f = _read_graph(args.graph)
    h = _read_hypergraph(args.hgraph)
    constraints = engine.SearchConstraints(
        required_core=frozenset(args.require_core or ()),
        required_edge=args.require_edge,
    )
    witness = engine.find_berge_witness(f, h, constraints)
    _emit({"contains": witness is not None,
           "witness": witness.serialize() if witness else None})
    return EXIT_OK if witness is not None else EXIT_PROPERTY_FAILS


def _check_free(args) -> int:
    f = _read_graph(args.graph)
    h = _read_hypergraph(args.hgraph)
    free, witness = saturation.is_berge_free(h, f)
    _emit({"is_free": free, "witness": None if free else witness.serialize()})
    return EXIT_OK if free else EXIT_PROPERTY_FAILS


def _check_saturated(args) -> int:
    h = _read_hypergraph(args.hgraph)
    f = _pattern_from(args)
    report = saturation.is_saturated(
        h, f, args.k,
        jobs=args.jobs, sample=args.sample, seed=args.seed, orbits=args.orbits,
    )
    _emit({
        "is_free": report.is_free,
        "violations_free": [w.serialize() for w in report.violations_free],
        "checked_missing": report.checked_missing,
        "violations_sat": [list(e) for e in report.violations_sat],
        "mode": report.mode,
        "saturated": report.saturated,
        "sample_count": report.sample_count,
        "sample_seed": report.sample_seed,
        "reduction_factor": report.reduction_factor,
    })
    _note(f"mode={report.mode} checked={report.checked_missing} "
          f"elapsed={report.elapsed:.2f}s")
    return EXIT_OK if report.no_violations else EXIT_PROPERTY_FAILS


def _verify_pairs_good(args) -> int:
    report = saturation.all_pairs_good(_read_hypergraph(args.hgraph), args.ell)
    _emit({"checked": report.checked, "good": report.good,
           "failures": [list(p) for p in report.failures]})
    _note(f"{report.good}/{report.checked} pairs good")
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS


def _verify_cores(args) -> int:
    report = saturation.all_cores_present(_read_hypergraph(args.hgraph), args.ell)
    _emit({"checked": report.checked, "subset_size": report.subset_size,
           "failures": [list(s) for s in report.failures]})
    _note(f"{report.checked - len(report.failures)}/{report.checked} subsets are cores")
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS


def _show_invariants(args) -> int:
    report = invariants.compute_invariants(_read_graph(args.graph))
    _emit({
        "alpha": report.alpha,
        "beta": report.beta,
        "delta": report.delta,
        "girth": "acyclic" if report.girth is None else report.girth,
        "feedback": report.feedback,
        "feedback_set": list(report.feedback_set),
    })
    return EXIT_OK


def _search_minsat(args) -> int:
    result = oracle.min_saturation_search(args.n, args.k, _pattern_from(args), args.max_m,
                                          isomorph_reject=args.isomorph_reject)
    if result is None:
        _emit({"m_star": None, "witness": None, "examined": None})
        return EXIT_PROPERTY_FAILS
    _emit({"m_star": result.m_star,
           "witness": serialize_hypergraph(result.witness_h),
           "examined": result.examined})
    return EXIT_OK


def _search_greedy(args) -> int:
    h = _read_hypergraph(args.hgraph)
    f = _read_graph(args.graph)
    try:
        completed = oracle.greedy_saturate(h, f, args.k)
    except RuntimeError as exc:  # the final certification failed, or too deep a search
        _note(f"error: {exc}")
        return EXIT_ERROR
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_hypergraph(completed))
    _emit({"edges_before": len(h.edges),
           "edges_added": len(completed.edges) - len(h.edges),
           "edges_after": len(completed.edges),
           "output": args.output})
    _note(f"wrote {args.output}")
    return EXIT_OK


def _leaf(group, name: str, run, **kwargs) -> argparse.ArgumentParser:
    """A subcommand that ``main`` runs through ``run(args)``."""
    parser = group.add_parser(name, **kwargs)
    parser.set_defaults(run=run)
    return parser


def _required_int(flag: str, *parsers) -> None:
    for p in parsers:
        p.add_argument(flag, type=int, required=True)


def _pattern_args(parser) -> None:
    pat = parser.add_mutually_exclusive_group(required=True)
    pat.add_argument("--graph")
    pat.add_argument("--clique", type=int)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bergesat")
    sub = top.add_subparsers(dest="command", required=True)

    def group(name: str, help: str):
        return sub.add_parser(name, help=help).add_subparsers(dest="which", required=True)

    gen = group("gen", "generate a labelled construction")
    gc = _leaf(gen, "c", _gen_c, help="small seed family")
    gs = _leaf(gen, "s", _gen_s, help="apex-block saturated family")
    gm = _leaf(gen, "mindeg", _gen_mindeg, help="blocks-with-shared-core family")
    gf = _leaf(gen, "feedback", _gen_feedback, help="feedback-set family")
    _required_int("--n", gs, gm, gf)
    _required_int("--k", gc, gs, gm, gf)
    _required_int("--ell", gc, gs)
    _required_int("--a", gf)
    for p in (gm, gf):
        p.add_argument("--graph", required=True)
    gf.add_argument("--feedback-set", type=_csv_ints, default=None)
    for p in (gc, gs, gm, gf):
        p.add_argument("-o", "--output", required=True)
        p.add_argument("--labels")

    chk = group("check", "containment / freeness / saturation")
    cc = _leaf(chk, "contains", _check_contains, help="Berge containment with witness")
    cf = _leaf(chk, "free", _check_free, help="Berge freeness")
    for p in (cc, cf):
        p.add_argument("--graph", required=True)
        p.add_argument("--hgraph", required=True)
    cc.add_argument("--require-core", type=_csv_ints, default=None)
    cc.add_argument("--require-edge", type=_csv_ints, default=None)
    cs = _leaf(chk, "saturated", _check_saturated, help="saturation verification")
    cs.add_argument("--hgraph", required=True)
    _pattern_args(cs)
    _required_int("--k", cs)
    cs.add_argument("--jobs", type=int, default=1)
    cs.add_argument("--sample", type=int, default=None)
    cs.add_argument("--seed", type=int, default=0)
    cs.add_argument("--orbits", action="store_true")

    ver = group("verify-lemma", "pairwise goodness / core coverage")
    for name, run in (("pairs-good", _verify_pairs_good), ("cores", _verify_cores)):
        p = _leaf(ver, name, run)
        p.add_argument("--hgraph", required=True)
        _required_int("--ell", p)

    inv = _leaf(sub, "invariants", _show_invariants, help="exact small-graph invariants")
    inv.add_argument("--graph", required=True)

    srch = group("search", "reference searches")
    sm = _leaf(srch, "minsat", _search_minsat, help="exact minimum saturation size")
    _required_int("--n", sm)
    _required_int("--k", sm)
    _pattern_args(sm)
    _required_int("--max-m", sm)
    sm.add_argument("--isomorph-reject", action="store_true")
    sg = _leaf(srch, "greedy", _search_greedy, help="greedy saturation completion")
    sg.add_argument("--hgraph", required=True)
    sg.add_argument("--graph", required=True)
    _required_int("--k", sg)
    sg.add_argument("-o", "--output", required=True)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return args.run(args)
    except (ParseError, ValueError, OSError, RecursionError) as exc:
        _note(f"error: {exc}")
        return EXIT_ERROR
    except KeyboardInterrupt:
        _note("error: interrupted")
        return EXIT_ERROR
    except MemoryError:
        _note("error: out of memory")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
