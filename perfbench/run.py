"""Benchmark for flutes: two workloads through the program's public interface.

    python3 perfbench/run.py --workload bulk_disk --seed 1 --seconds 40 --trace 0

Run from the repository root.  A run repeats whole rounds of its workload
(fresh session, imports, inserts, class definitions, analytics, queries,
reopens) until --seconds have passed, checks every operation's result
against gen.py's expectations, and prints one JSON object as the last line
of standard output: the end-to-end metrics with --trace 0, or the per-layer
metrics of exactly one traced round with --trace 1.  Diagnostics go to
standard error.  Scratch files live under .perfbench/ and are removed at the
end, except the trace file of a traced run.
"""

import argparse
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from time import perf_counter

import checks
import gen
import timing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 9         # fresh interpreters timed for setup_s (after a warm-up)

UNITS = {"setup_s": "s", "load_decls_per_s": "1/s", "classify_decls_per_s": "1/s",
         "update_p50_ms": "ms", "update_p90_ms": "ms", "defclass_ms": "ms",
         "query_per_s": "1/s", "analytic_terms_per_s": "1/s", "peak_rss_mb": "MB"}


def _log(msg: str):
    print(msg, file=sys.stderr, flush=True)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Runner:
    """Runs rounds of one workload and keeps the normalised times."""

    def __init__(self, spec, ops, workdir, clock, tracer=None):
        from flutes import Store, mk_analytic, terms
        from flutes.cli import Session
        self.Store, self.Session, self.mk_analytic, self.T = Store, Session, mk_analytic, terms
        self.spec, self.ops, self.workdir = spec, ops, workdir
        self.clock, self.tracer = clock, tracer
        self.attempted = 0
        self.failed = 0
        self.samples = defaultdict(list)   # kind -> [(position in round, op id, units)]
        self.store_bytes: list[int] = []
        self.decls = sum(op.decls for op in ops if op.kind in ("load", "update"))
        self.batches = {}
        for i, op in enumerate(o for o in ops if o.kind == "load"):
            path = os.path.join(workdir, f"batch{i}.fl")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.expect.pop("text"))
            self.batches[id(op)] = path

    # -- one round ------------------------------------------------------------

    def round(self):
        gc.unfreeze()
        gc.collect()
        self.path = (tempfile.mkdtemp(dir=self.workdir) if self.spec["disk"]
                     else None)
        store = self.Store(os.path.join(self.path, "kb")) if self.path else self.Store()
        self.out = io.StringIO()
        self.session = self.Session(store, self.out, timings=False)
        for line in gen.setup_lines():
            self.session.run_line(line)
        self.seen: dict[str, int] = {}
        self.dump = None
        try:
            for self.position, op in enumerate(self.ops):
                self.run_op(op)
        finally:
            if self.dump is None:
                self.close_session()
            self.session = None
            if self.path:
                shutil.rmtree(self.path)

    def close_session(self):
        store = self.session.store
        self.dump = store.dump_state() if self.path else ""
        store.close()
        if self.path:
            self.store_bytes.append(dir_bytes(os.path.join(self.path, "kb")))

    def run_op(self, op):
        n = len(op.expect["queries"]) if op.kind == "query" else 1
        self.attempted += n
        try:
            problems = getattr(self, "op_" + op.kind)(op)
        except Exception as exc:           # a raising operation is a failed one
            problems = [f"raised {type(exc).__name__}: {exc}"] * n
        if problems:
            self.failed += min(n, len(problems))
            if self.failed <= 20:
                _log(f"FAILED {op.kind}: {problems[0]}")

    def timed(self, kind, units, fn):
        # The cyclic collector's full-heap passes land on whichever operation
        # crosses a threshold, which depends on allocation history and not on
        # the operation.  Freezing what exists beforehand leaves each
        # operation to collect only what it allocates itself.
        gc.freeze()
        if self.tracer is not None:
            fn = self.tracer.recording(fn)
        result, op = self.clock.time(fn)
        if self.tracer is not None:
            self.tracer.close_op(op)
        self.samples[kind].append((self.position, op, units))
        return result

    def output(self) -> list[tuple[str, str]]:
        text = self.out.getvalue()
        self.out.seek(0)
        self.out.truncate()
        return [tuple(line.split("\t", 1)) for line in text.splitlines() if "\t" in line]

    # -- operations -------------------------------------------------------------

    def op_load(self, op):
        self.output()
        self.timed("load", op.decls,
                   lambda: self.session.run_line(f"load {self.batches[id(op)]}"))
        return self._inserted(self.output(), op)

    @staticmethod
    def _inserted(out, op):
        got = sum(int(v) for k, v in out if k == "inserted")
        return [] if got == op.decls else [f"inserted {got}, expected {op.decls}"]

    def _find(self, op):
        def go():
            for line in op.lines:
                self.session.run_line(line)
        self.output()
        self.timed(op.kind, op.decls, go)
        out = self.output()
        problems = self._inserted(out, op) if op.kind == "update" else []
        promoted = sum(int(v) for k, v in out if k == "promoted")
        new = {cls: self.members(cls) for cls in op.expect["delta"]}
        sizes = dict(self.seen)
        new = self.observe("find", new)
        return problems + checks.check_find(promoted, new, sizes, op.expect)

    def members(self, cls):
        """Plain terms of the members a class gained since last asked."""
        members = self.session.store.kb_class(cls).members
        new = [gen.plain(t) for _, t in members[self.seen.get(cls, 0):]]
        self.seen[cls] = len(members)
        return new

    def observe(self, check, results):
        """The results a check sees (the self-test substitutes wrong ones)."""
        return results

    def op_classify(self, op):
        return self._find(op)

    def op_update(self, op):
        return self._find(op)

    def op_defclass(self, op):
        return self._find(op)

    def op_analytic(self, op):
        session, store = self.session, self.session.store
        for line in op.prep:
            session.run_line(line)
        if op.expect["out"] == "flow":
            self.mk_analytic(store, "rewrite", "fi_related", "flow",
                             self._rewrite(store), registry=session.analytics)
        self.output()
        self.timed("analytic", op.expect["processed"],
                   lambda: session.run_line(op.lines[0]))
        out = self.output()
        report = {k: int(v) for k, v in out if k in ("processed", "inserted", "failures")}
        names = [k[len("failure."):] for k, _ in out if k.startswith("failure.")]
        if op.expect["out"] == "flow":
            related = store.kb_class("fi_related")
            rejected = [gen.plain(related.members[related.by_name[m]][1]) for m in names]
        else:
            rejected = names
        members = self.observe("analytic", self.members(op.expect["out"]))
        return checks.check_analytic(report, members, rejected, op.expect)

    def _rewrite(self, store):
        """Host function: an fi_related edge becomes a flow record; a self
        edge gets a string weight, which the output type must reject."""
        T = self.T

        def rewrite(t):
            _, (src, dst) = T.pred_app_parts(t)
            w = T.num_f(1.0) if src != dst else T.string("self")
            return T.record(store.tax, [("src", src), ("dst", dst), ("w", w)])
        return rewrite

    def op_query(self, op):
        store = self.session.store
        queries = op.expect["queries"]
        got = self.timed("query", len(queries),
                         lambda: [store.nearest(2, s, "person") for s, _ in queries])
        got = self.observe("query", got)
        return [p for (s, want), g in zip(queries, got)
                for p in checks.check_query(s, g, want)]

    def op_reopen(self, op):
        if self.dump is None:
            self.close_session()
        path = os.path.join(self.path, "kb")
        store = self.timed("reopen", 1, lambda: self.Store(path))
        try:
            return checks.check_reopen(self.dump,
                                       self.observe("reopen", store.dump_state()))
        finally:
            store.close()

    # -- metrics ----------------------------------------------------------------

    def medians(self, kind, raw=False) -> list[tuple[float, int]]:
        """Per position in the round: the median time over the rounds
        (normalised, or raw wall-clock), and the units of work there."""
        by_pos = defaultdict(list)
        units = {}
        for pos, op, n in self.samples[kind]:
            by_pos[pos].append(self.clock.ops[op][0] if raw else self.clock.seconds(op))
            units[pos] = n
        return [(statistics.median(v), units[p]) for p, v in sorted(by_pos.items())]

    def rate(self, kind, raw=False):
        med = self.medians(kind, raw)
        return sum(n for _, n in med) / sum(s for s, _ in med)

    def times(self, kind, raw=False):
        return sorted(s for s, _ in self.medians(kind, raw))

    def end_to_end(self, raw=False) -> dict:
        updates = self.times("update", raw)
        return {
            "load_decls_per_s": self.rate("load", raw),
            "classify_decls_per_s": self.rate("classify", raw),
            "update_p50_ms": 1e3 * statistics.median(updates),
            "update_p90_ms": 1e3 * percentile(updates, 0.9),
            "defclass_ms": 1e3 * statistics.fmean(self.times("defclass", raw)),
            "query_per_s": self.rate("query", raw),
            "analytic_terms_per_s": self.rate("analytic", raw),
        }


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def setup_seconds(workload, workdir) -> float:
    """Median set-up time over fresh interpreters (the first is a warm-up)."""
    probe = os.path.join(HERE, "setup_probe.py")
    values = []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run([sys.executable, probe, workload, workdir, SRC],
                             capture_output=True, text=True, timeout=60, check=True)
        if i:
            values.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "flutes", "__init__.py")):
        _log(f"error: no flutes package under {SRC}; run from a full checkout")
        return 2
    sys.path.insert(0, SRC)
    import flutes  # noqa: F401  (fails loudly before any measuring)

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK, prefix=f"{args.workload}-")
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir) -> int:
    spec = gen.SPECS[args.workload]
    ops = gen.build(spec, args.seed)
    clock = timing.Clock()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    runner = Runner(spec, ops, workdir, clock, tracer)
    result = {}
    if not args.trace:
        result["setup_s"] = setup_seconds(args.workload, workdir)
    start = perf_counter()
    rounds = 0
    while rounds == 0 or (not args.trace and perf_counter() - start < args.seconds):
        runner.round()
        rounds += 1
    elapsed = perf_counter() - start
    decl_bytes = (statistics.median(runner.store_bytes) / runner.decls
                  if runner.store_bytes else 0.0)
    if args.trace:
        tracer.uninstall()
        metrics = tracer.metrics(runner, decl_bytes)
        units = tracing.UNITS
        tracer.write(os.path.join(WORK, f"trace-{args.workload}-{args.seed}.spans"))
    else:
        metrics = dict(result, **runner.end_to_end())
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = UNITS
    loops = sorted(clock.loops)
    _log(json.dumps({"rounds": rounds, "round_s": elapsed / rounds,
                     "ops_s": sum(clock.seconds(op) for v in runner.samples.values()
                                  for _, op, _ in v) / rounds,
                     "ref_ms_q1": 1e3 * percentile(loops, 0.25),
                     "ref_ms_median": 1e3 * statistics.median(loops),
                     "ref_ms_q3": 1e3 * percentile(loops, 0.75),
                     "store_bytes_per_decl": decl_bytes,
                     "raw": {} if args.trace else runner.end_to_end(raw=True)}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
