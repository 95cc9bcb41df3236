"""Benchmark harness for bergesat; standard library only.

Run from the root of a bergesat checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 30 --trace 0

The untraced run (``--trace 0``) sets the workload up several times, then
repeats passes over the workload's fixed operation list until the passes
add up to ``--seconds`` (at least three), checks every output, and prints
the end-to-end metrics.  Pass times are gated after dividing by the run's
median time of a fixed reference kernel, timed between operations, which
cancels most of the host's drift in speed.  The traced run (``--trace 1``) installs timing
wrappers and profiles one pass of every workload, so each per-layer metric
exists whatever ``--workload`` names; that workload's untraced and traced
passes give the tracing overhead.  ``--workload all`` runs the three
workloads untraced in this process and prints one row per workload.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run record (machine, Python,
git revision, seed, load average, metrics) and, for traced runs, every span
are written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_REPS = 9
MIN_PASSES = 3
REFERENCE_EVERY = 0.25  # at most one reference-kernel sample per this many seconds
REFERENCE_S = 0.025  # median reference-kernel time where the benchmark was defined
WORKLOAD_NAMES = ("certify", "query", "search")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024


def reference_seconds() -> float:
    """Wall seconds of one run of a fixed pure-Python kernel that shares no
    code with bergesat but does the same kind of work as its search:
    augmenting-path matching over dicts and sets, tuple keys, sorting.

    Garbage collection is off while it runs, so objects the library keeps
    alive cannot change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    try:
        n = 48
        adjacency = [tuple(sorted({(i * 7 + j * 13) % n for j in range(5)})) for i in range(n)]
        for _ in range(40):
            owner: dict[int, int] = {}

            def augment(d: int, seen: set[int]) -> bool:
                for e in adjacency[d]:
                    if e not in seen:
                        seen.add(e)
                        if owner.get(e, -1) == -1 or augment(owner[e], seen):
                            owner[e] = d
                            return True
                return False

            for d in range(n):
                augment(d, set())
        table = {}
        for i in range(20000):
            table[(i * 7919) % 1009, i & 15] = i
        order = sorted(table, key=lambda t: (-t[1], t[0]))
        sum(1 for a, b in order if (b, a) in table)
    finally:
        if enabled:
            gc.enable()
    return perf_counter() - start


def run_pass(ops, between=None) -> tuple[list[str], list[float], float, float]:
    """Run every operation once; returns outputs, per-op seconds, pass wall
    seconds and pass CPU seconds, both summed over the operations only.
    ``between`` is called before each operation, outside the timing.  An
    exception becomes an ``error:`` output, which the judge counts as a
    failed operation."""
    outputs, seconds, cpu = [], [], 0.0
    for op in ops:
        if between is not None:
            between()
        cpu0 = cpu_seconds()
        t = perf_counter()
        try:
            out = op.fn()
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            out = f"error: {type(exc).__name__}: {exc}"
        seconds.append(perf_counter() - t)
        cpu += cpu_seconds() - cpu0
        outputs.append(out)
    return outputs, seconds, sum(seconds), cpu


class ReferenceSampler:
    """Times the reference kernel once per ``REFERENCE_EVERY`` seconds of
    elapsed run time, so its samples follow the host's speed through the
    run the way the measured work does."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def __call__(self) -> None:
        if perf_counter() - self._last >= REFERENCE_EVERY:
            self.samples.append(reference_seconds())
            self._last = perf_counter()


def judge(workload, outputs: list[str], seed: int, digests: dict) -> dict[int, str]:
    """Indices of failed operations with the reason.  Recorded digests apply
    on the default seed, and on every seed to seed-independent operations."""
    from workloads import DEFAULT_SEED

    bad = {i: out for i, out in enumerate(outputs) if out.startswith("error: ")}
    for i, reason in workload.check(outputs, seed).items():
        bad.setdefault(i, reason)
    recorded = digests.get(workload.name, {})
    for key, (indices, digest) in output_digests(workload.ops, outputs).items():
        if seed == DEFAULT_SEED or workload.ops[indices[0]].seed_independent:
            if recorded.get(key) != digest:
                for i in indices:
                    bad.setdefault(i, f"{workload.ops[i].name}: output digest mismatch")
    return bad


def output_digests(ops, outputs: list[str]) -> dict[str, tuple[list[int], str]]:
    """sha256 over the outputs of the operations sharing each digest key."""
    groups: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        groups.setdefault(op.digest_key, []).append(i)
    return {key: (indices, sha256("".join(outputs[i] for i in indices)))
            for key, indices in groups.items()}


class Tally:
    """Attempted and failed operations over a run, plus the first reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, bad: dict[int, str]) -> None:
        self.attempted += attempted
        self.failed += len(bad)
        self.reasons.extend(list(bad.values())[: 10 - len(self.reasons)])


def compare(reference: list[str], outputs: list[str], bad: dict[int, str]) -> dict[int, str]:
    """``bad`` plus every operation whose output differs from the reference."""
    out = dict(bad)
    for i, (a, b) in enumerate(zip(reference, outputs)):
        if a != b:
            out.setdefault(i, f"operation {i}: output differs between passes")
    return out


def set_up(cls, seed: int, workdir: Path, reps: int):
    """Set the workload up ``reps`` times in fresh directories; returns the
    last instance and the median set-up seconds."""
    times = []
    for rep in range(reps):
        d = workdir / f"{cls.name}-setup{rep}"
        d.mkdir()
        w = cls()
        start = perf_counter()
        w.setup(d, seed)
        times.append(perf_counter() - start)
    return w, statistics.median(times)


def measure(cls, seed: int, seconds: float, workdir: Path, digests: dict, tally: Tally):
    """Untraced run of one workload; returns (metrics, extras, observed digests)."""
    w, setup_s = set_up(cls, seed, workdir, SETUP_REPS)
    samples: list[list[float]] = [[] for _ in w.ops]
    walls, cpus = [], []
    sampler = ReferenceSampler()
    reference, bad = None, {}
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        outputs, secs, wall, cpu = run_pass(w.ops, sampler)
        walls.append(wall)
        cpus.append(cpu)
        for i, s in enumerate(secs):
            samples[i].append(s)
        if reference is None:
            reference = outputs
            bad = judge(w, outputs, seed, digests)
            tally.add(len(outputs), bad)
        else:
            tally.add(len(outputs), compare(reference, outputs, bad))
    refs = sampler.samples
    speed = REFERENCE_S / statistics.median(refs)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_norm_s": (statistics.median(walls) * speed, "s"),
        "cpu_norm_s": (statistics.median(cpus) * speed, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extras = {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "reference_s": (statistics.median(refs), "s"),
        "reference_samples": (len(refs), "count"),
        "passes": (len(walls), "count"),
    }
    if not bad:
        extras.update(w.breakdown(reference, samples))
    observed = {key: digest for key, (_, digest) in output_digests(w.ops, reference).items()}
    return metrics, extras, observed


# ---------------------------------------------------------------------------
# the traced run


def traced(selected: str, seed: int, workdir: Path, digests: dict, tally: Tally):
    """Profile one pass of every workload under the timing wrappers.

    Per workload: set-up (traced), one untraced pass (checked; the base for
    the overhead and the breakdown), then two traced passes whose outputs
    and per-function call counts must repeat exactly.  Per-layer figures
    come from the traced set-ups and first traced passes.
    """
    import tracing
    from workloads import WORKLOADS

    tracer = tracing.Tracer()
    phases = []
    spans_all, hot_all = [], {}
    runs = {}
    metrics: dict[str, tuple] = {}

    def traced_call(label: str, fn, keep: bool):
        tracer.install()
        try:
            result = fn()
        finally:
            tracer.remove()
        spans, hot = tracer.take()
        phases.append((label, spans, hot))
        if keep:
            spans_all.extend(spans)
            _merge_hot(hot_all, hot)
        return result, spans, hot

    try:
        for name in WORKLOAD_NAMES:
            w = WORKLOADS[name]()
            d = workdir / name
            d.mkdir()
            traced_call(f"{name}:setup", lambda: w.setup(d, seed), keep=True)
            outputs, secs, wall, _ = run_pass(w.ops)
            bad = judge(w, outputs, seed, digests)
            tally.add(len(outputs), bad)
            traced_walls, counts = [], []
            for rep in (1, 2):
                (again, _, twall, _), spans, hot = traced_call(
                    f"{name}:pass{rep}", lambda: run_pass(w.ops), keep=rep == 1)
                tally.add(len(again), compare(outputs, again, bad))
                traced_walls.append(twall)
                funcs, _ = tracing.summarize(spans, hot)
                counts.append({fn: row["calls"] for fn, row in funcs.items()})
            if counts[0] != counts[1]:
                tally.add(1, {0: f"{name}: call counts differ between traced passes"})
            runs[name] = (w, outputs, secs)
            if name == selected:
                metrics["trace.overhead_pct"] = (
                    (statistics.median(traced_walls) / wall - 1) * 100, "%")
            for key, value in w.breakdown(outputs, [[s] for s in secs]).items():
                metrics[f"{name}.{key}"] = value
    finally:
        tracer.remove()
        tracing.dump(OUT / f"trace-{selected}-seed{seed}.json", phases)

    metrics.update(_layer_metrics(spans_all, hot_all))
    metrics.update(_output_metrics(runs))
    metrics.update(_probe_metrics(runs))
    return metrics


def _layer_metrics(spans, hot) -> dict:
    """Per-layer and per-function figures from the recorded spans."""
    import tracing

    funcs, layers = tracing.summarize(spans, hot)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for layer in tracing.LAYERS:
        row = layers.get(layer, empty)
        out[f"{layer}.calls"] = (row["calls"], "count")
        out[f"{layer}.total_s"] = (row["total_s"], "s")
        out[f"{layer}.self_s"] = (row["self_s"], "s")

    def fn(name: str, key: str = "total_s") -> float:
        return funcs.get(name, empty)[key]

    def per_call_us(name: str) -> float:
        return fn(name) / max(fn(name, "calls"), 1) * 1e6

    candidates, _ = tracing.hot_under(spans, hot, "oracle.greedy_saturate",
                                      "engine.creates_new_berge")
    accepted = len(tracing.children_of(spans, "oracle.greedy_saturate", "core.add_edge"))
    certify = tracing.children_of(spans, "oracle.greedy_saturate", "saturation.is_saturated")
    out.update({
        "core.parse_hypergraph_ms": (fn("core.parse_hypergraph") * 1e3, "ms"),
        "core.serialize_hypergraph_ms": (fn("core.serialize_hypergraph") * 1e3, "ms"),
        "core.add_edge_calls": (fn("core.add_edge", "calls"), "count"),
        "core.add_edge_s": (fn("core.add_edge"), "s"),
        "constructions.build_s_ms": (fn("constructions.build_s") * 1e3, "ms"),
        "engine.find_berge_witness_calls": (fn("engine.find_berge_witness", "calls"), "count"),
        "engine.find_berge_witness_ms": (fn("engine.find_berge_witness", "self_s") * 1e3, "ms"),
        "engine.creates_new_berge_calls": (fn("engine.creates_new_berge", "calls"), "count"),
        "engine.creates_new_berge_us": (per_call_us("engine.creates_new_berge"), "us"),
        "saturation.is_berge_free_ms": (fn("saturation.is_berge_free") * 1e3, "ms"),
        "saturation.all_pairs_good_s": (fn("saturation.all_pairs_good"), "s"),
        "oracle.greedy_candidates": (candidates, "count"),
        "oracle.greedy_accept_ratio": (accepted / max(candidates, 1), "ratio"),
        "oracle.greedy_certify_s": (sum(s.end - s.start for s in certify), "s"),
        "oracle.berge_oracle_calls": (fn("oracle.berge_oracle", "calls"), "count"),
        "oracle.berge_oracle_us": (per_call_us("oracle.berge_oracle"), "us"),
    })
    return out


def _output_metrics(runs: dict) -> dict:
    """Figures read from the outputs and timings of the untraced passes."""
    from workloads import parse_cli

    cert, cert_out, cert_secs = runs["certify"]
    reports = {op.name: (parse_cli(out)[1], sec, len(out.partition("\n")[2]))
               for op, out, sec in zip(cert.ops, cert_out, cert_secs)}
    full3, full3_s, _ = reports["full:s3"]
    full4, full4_s, _ = reports["full:s4"]
    orbits, orbits_s, _ = reports["orbits:s3"]
    sampled, sampled_s, _ = reports["sampled:s3"]
    lemma = reports["lemma:s3"][0]
    query, query_out, _ = runs["query"]
    search, search_out, _ = runs["search"]
    return {
        "cli.stdout_bytes": (sum(r[2] for r in reports.values()), "bytes"),
        "saturation.probe_us": (full3_s / full3["checked_missing"] * 1e6, "us"),
        "saturation.probe_k4_us": (full4_s / full4["checked_missing"] * 1e6, "us"),
        "saturation.violations": (sum(len(r[0]["violations_sat"])
                                      for key, r in reports.items()
                                      if key.startswith("full:b")), "count"),
        "saturation.orbit_reduction": (orbits["reduction_factor"], "ratio"),
        "saturation.orbit_probe_us": (orbits_s / orbits["checked_missing"] * 1e6, "us"),
        "saturation.sample_probe_us": (sampled_s / sampled["checked_missing"] * 1e6, "us"),
        "saturation.pairs_good_ratio": (lemma["good"] / lemma["checked"], "ratio"),
        "engine.witness_found_ratio": (
            sum(out not in ("none\n", "free\n") for out in query_out) / len(query_out), "ratio"),
        "engine.validate_witness_us": (statistics.mean(query.validate_seconds) * 1e6, "us"),
        "oracle.minsat_examined": (sum(int(out.split("\n")[1].split()[1])
                                       for op, out in zip(search.ops, search_out)
                                       if op.kind == "minsat"), "count"),
    }


def _probe_metrics(runs: dict) -> dict:
    """Dedicated untraced measurements: CLI overhead, index build, pool."""
    from bergesat import constructions, engine, invariants, saturation
    from workloads import run_cli

    cert, query = runs["certify"][0], runs["query"][0]
    argv = ["check", "saturated", "--hgraph", str(cert.files["s3"][0]), "--clique", "4",
            "--k", "3", "--sample", "200", "--seed", "0"]
    h3, k4 = cert.hosts["s3"], invariants.make_clique(4)
    cli_t = _median_time(lambda: run_cli(argv), 5)
    lib_t = _median_time(lambda: saturation.is_saturated(h3, k4, 3, sample=200, seed=0), 5)
    k2 = invariants.make_clique(2)
    index_t = statistics.mean(_median_time(lambda h=h: engine.find_berge_witness(k2, h), 5)
                              for h in query.hosts.values())
    # C(79,3) = 79,079 ranks: two near-equal work units for a 2-worker pool
    pool_h, _, _ = constructions.build_s(79, 3, 4)
    t1 = _median_time(lambda: saturation.is_saturated(pool_h, k4, 3, jobs=1), 1)
    t2 = _median_time(lambda: saturation.is_saturated(pool_h, k4, 3, jobs=2), 1)
    return {
        "cli.overhead_ms": ((cli_t - lib_t) * 1e3, "ms"),
        "engine.index_probe_ms": (index_t * 1e3, "ms"),
        "saturation.jobs2_speedup": (t1 / t2, "ratio"),
        "saturation.pool_overhead_ms": ((t2 - t1 / 2) * 1e3, "ms"),
    }


def _merge_hot(into: dict, hot: dict) -> None:
    for key, (count, total) in hot.items():
        slot = into.setdefault(key, [0, 0.0])
        slot[0] += count
        slot[1] += total


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# run record and output


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(workload: str, seed: int, seconds: float, trace: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "git_revision": _git_revision(),
        "loadavg_1m": os.getloadavg()[0],
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_row(label: str, values: dict) -> None:
    cells = "  ".join(f"{k}={_fmt(v)} {u}" for k, (v, u) in values.items())
    print(f"{label:8s} {cells}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "bergesat" / "__init__.py").is_file():
        print(f"error: no bergesat sources under {src}; run from a bergesat checkout",
              file=sys.stderr)
        return 2
    if args.trace and args.workload == "all":
        print("error: --trace 1 needs a single workload", file=sys.stderr)
        return 2
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(src))
    start = perf_counter()
    import bergesat  # timed: part of set-up
    import bergesat.cli  # noqa: F401  (the package itself does not import it)
    import_s = perf_counter() - start
    if Path(bergesat.__file__).resolve().parent != (src / "bergesat").resolve():
        print(f"error: imported bergesat from {bergesat.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    tally = Tally()
    observed: dict[str, dict] = {}
    rows: dict[str, dict] = {}
    try:
        if args.trace:
            metrics = traced(args.workload, args.seed, workdir, digests, tally)
            for key, (value, unit) in metrics.items():
                print(f"{key:34s} {_fmt(value):>12s} {unit}")
        else:
            metrics = {}
            names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
            for name in names:
                before = tally.failed, tally.attempted
                wm, extras, observed[name] = measure(
                    WORKLOADS[name], args.seed, args.seconds, workdir, digests, tally)
                wm["setup_s"] = (wm["setup_s"][0] + import_s, "s")
                failed, attempted = tally.failed - before[0], tally.attempted - before[1]
                rows[name] = {**wm, "error_rate": (failed / attempted, "ratio"), **extras}
                print_row(name, rows[name])
                if args.workload == "all":
                    metrics.update({f"{name}.{k}": v for k, v in wm.items()})
                else:
                    metrics = wm
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(result=result, rows=rows, failures=tally.reasons, digests=observed)
    (OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
