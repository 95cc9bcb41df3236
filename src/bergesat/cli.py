"""Command-line interface.

One JSON object per invocation goes to stdout (stable keys, sorted, no
timing), human-readable notes go to stderr.  Exit codes: 0 when the checked
property holds or generation succeeded, 1 when the property fails, 2 on
usage or input errors, on an internal failure and on Ctrl-C.
"""

from __future__ import annotations

import argparse
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
    if getattr(args, "clique", None) is not None:
        return invariants.make_clique(args.clique)
    return _read_graph(args.graph)


def _write_generated(args, h: Hypergraph, labels) -> None:
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(serialize_hypergraph(h))
    if getattr(args, "labels", None):
        with open(args.labels, "w", encoding="utf-8") as fh:
            fh.write(labels.serialize())


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="bergesat")
    sub = top.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a labelled construction")
    gen_sub = gen.add_subparsers(dest="which", required=True)

    gc = gen_sub.add_parser("c", help="small seed family")
    gc.add_argument("--k", type=int, required=True)
    gc.add_argument("--ell", type=int, required=True)
    gc.add_argument("-o", "--output", required=True)
    gc.add_argument("--labels")

    gs = gen_sub.add_parser("s", help="apex-block saturated family")
    gs.add_argument("--n", type=int, required=True)
    gs.add_argument("--k", type=int, required=True)
    gs.add_argument("--ell", type=int, required=True)
    gs.add_argument("-o", "--output", required=True)
    gs.add_argument("--labels")

    gm = gen_sub.add_parser("mindeg", help="blocks-with-shared-core family")
    gm.add_argument("--n", type=int, required=True)
    gm.add_argument("--k", type=int, required=True)
    gm.add_argument("--graph", required=True)
    gm.add_argument("-o", "--output", required=True)
    gm.add_argument("--labels")

    gf = gen_sub.add_parser("feedback", help="feedback-set family")
    gf.add_argument("--n", type=int, required=True)
    gf.add_argument("--k", type=int, required=True)
    gf.add_argument("--a", type=int, required=True)
    gf.add_argument("--graph", required=True)
    gf.add_argument("--feedback-set", type=_csv_ints, default=None)
    gf.add_argument("-o", "--output", required=True)
    gf.add_argument("--labels")

    chk = sub.add_parser("check", help="containment / freeness / saturation")
    chk_sub = chk.add_subparsers(dest="which", required=True)

    cc = chk_sub.add_parser("contains", help="Berge containment with witness")
    cc.add_argument("--graph", required=True)
    cc.add_argument("--hgraph", required=True)
    cc.add_argument("--require-core", type=_csv_ints, default=None)
    cc.add_argument("--require-edge", type=_csv_ints, default=None)

    cf = chk_sub.add_parser("free", help="Berge freeness")
    cf.add_argument("--graph", required=True)
    cf.add_argument("--hgraph", required=True)

    cs = chk_sub.add_parser("saturated", help="saturation verification")
    cs.add_argument("--hgraph", required=True)
    pat = cs.add_mutually_exclusive_group(required=True)
    pat.add_argument("--graph")
    pat.add_argument("--clique", type=int)
    cs.add_argument("--k", type=int, required=True)
    cs.add_argument("--jobs", type=int, default=1)
    cs.add_argument("--sample", type=int, default=None)
    cs.add_argument("--seed", type=int, default=0)
    cs.add_argument("--orbits", action="store_true")

    ver = sub.add_parser("verify-lemma", help="pairwise goodness / core coverage")
    ver_sub = ver.add_subparsers(dest="which", required=True)

    vp = ver_sub.add_parser("pairs-good")
    vp.add_argument("--hgraph", required=True)
    vp.add_argument("--ell", type=int, required=True)

    vc = ver_sub.add_parser("cores")
    vc.add_argument("--hgraph", required=True)
    vc.add_argument("--ell", type=int, required=True)

    inv = sub.add_parser("invariants", help="exact small-graph invariants")
    inv.add_argument("--graph", required=True)

    srch = sub.add_parser("search", help="reference searches")
    srch_sub = srch.add_subparsers(dest="which", required=True)

    sm = srch_sub.add_parser("minsat", help="exact minimum saturation size")
    sm.add_argument("--n", type=int, required=True)
    sm.add_argument("--k", type=int, required=True)
    spat = sm.add_mutually_exclusive_group(required=True)
    spat.add_argument("--graph")
    spat.add_argument("--clique", type=int)
    sm.add_argument("--max-m", type=int, required=True)
    sm.add_argument("--isomorph-reject", action="store_true")

    sg = srch_sub.add_parser("greedy", help="greedy saturation completion")
    sg.add_argument("--hgraph", required=True)
    sg.add_argument("--graph", required=True)
    sg.add_argument("--k", type=int, required=True)
    sg.add_argument("-o", "--output", required=True)

    return top


def _cmd_gen(args) -> int:
    if args.which == "c":
        if args.ell == 4:
            h, labels = constructions.build_c_k_4(args.k)
        else:
            h, labels = constructions.build_c_k_ell(args.k, args.ell)
        _write_generated(args, h, labels)
        _emit({"n": h.n, "edge_count": len(h.edges), "k": args.k, "ell": args.ell,
               "output": args.output})
    elif args.which == "s":
        h, labels, params = constructions.build_s(args.n, args.k, args.ell)
        _write_generated(args, h, labels)
        _emit({"n": h.n, "edge_count": len(h.edges), "k": args.k, "ell": args.ell,
               "a": params.a, "b": params.b, "output": args.output})
    elif args.which == "mindeg":
        f = _read_graph(args.graph)
        h, labels = constructions.build_h_min_deg(args.n, args.k, f)
        _write_generated(args, h, labels)
        _emit({"n": h.n, "edge_count": len(h.edges), "k": args.k, "output": args.output})
    else:  # feedback
        f = _read_graph(args.graph)
        h, labels = constructions.build_h_feedback(
            args.n, args.k, args.a, f, args.feedback_set
        )
        _write_generated(args, h, labels)
        _emit({"n": h.n, "edge_count": len(h.edges), "k": args.k, "a": args.a,
               "output": args.output})
    _note(f"wrote {args.output}")
    return EXIT_OK


def _cmd_check(args) -> int:
    if args.which == "contains":
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
    if args.which == "free":
        f = _read_graph(args.graph)
        h = _read_hypergraph(args.hgraph)
        free, witness = saturation.is_berge_free(h, f)
        _emit({"is_free": free, "witness": None if free else witness.serialize()})
        return EXIT_OK if free else EXIT_PROPERTY_FAILS
    # saturated
    h = _read_hypergraph(args.hgraph)
    f = _pattern_from(args)
    report = saturation.is_saturated(
        h, f, args.k,
        jobs=args.jobs, sample=args.sample, seed=args.seed, orbits=args.orbits,
    )
    payload = {
        "is_free": report.is_free,
        "violations_free": [w.serialize() for w in report.violations_free],
        "checked_missing": report.checked_missing,
        "violations_sat": [list(e) for e in report.violations_sat],
        "mode": report.mode,
        "saturated": report.saturated,
        "sample_count": report.sample_count,
        "sample_seed": report.sample_seed,
        "reduction_factor": report.reduction_factor,
    }
    _emit(payload)
    _note(f"mode={report.mode} checked={report.checked_missing} "
          f"elapsed={report.elapsed:.2f}s")
    return EXIT_OK if report.no_violations else EXIT_PROPERTY_FAILS


def _cmd_verify_lemma(args) -> int:
    h = _read_hypergraph(args.hgraph)
    if args.which == "pairs-good":
        report = saturation.all_pairs_good(h, args.ell)
        _emit({"checked": report.checked, "good": report.good,
               "failures": [list(p) for p in report.failures]})
        _note(f"{report.good}/{report.checked} pairs good")
        return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS
    report = saturation.all_cores_present(h, args.ell)
    _emit({"checked": report.checked, "subset_size": report.subset_size,
           "failures": [list(s) for s in report.failures]})
    _note(f"{report.checked - len(report.failures)}/{report.checked} subsets are cores")
    return EXIT_OK if report.ok else EXIT_PROPERTY_FAILS


def _cmd_invariants(args) -> int:
    g = _read_graph(args.graph)
    report = invariants.compute_invariants(g)
    _emit({
        "alpha": report.alpha,
        "beta": report.beta,
        "delta": report.delta,
        "girth": "acyclic" if report.girth is None else report.girth,
        "feedback": report.feedback,
        "feedback_set": list(report.feedback_set),
    })
    return EXIT_OK


def _cmd_search(args) -> int:
    if args.which == "minsat":
        f = _pattern_from(args)
        result = oracle.min_saturation_search(
            args.n, args.k, f, args.max_m, isomorph_reject=args.isomorph_reject
        )
        if result is None:
            _emit({"m_star": None, "witness": None, "examined": None})
            return EXIT_PROPERTY_FAILS
        _emit({"m_star": result.m_star,
               "witness": serialize_hypergraph(result.witness_h),
               "examined": result.examined})
        return EXIT_OK
    # greedy
    h = _read_hypergraph(args.hgraph)
    f = _read_graph(args.graph)
    try:
        completed = oracle.greedy_saturate(h, f, args.k)
    except RecursionError:
        raise
    except RuntimeError as exc:  # the final certification failed
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


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "verify-lemma":
            return _cmd_verify_lemma(args)
        if args.command == "invariants":
            return _cmd_invariants(args)
        return _cmd_search(args)
    except (ParseError, ValueError, OSError, RecursionError) as exc:
        _note(f"error: {exc}")
        return EXIT_ERROR
    except KeyboardInterrupt:
        _note("error: interrupted")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
