"""Per-layer tracing of flutes from outside the program.

`Tracer.install` wraps public functions of each layer.  A function that a
module imported by name is replaced in every flutes module that holds it
(prove_subtype in classifier, rules and oracle, for example); a recursive
function is left alone in its own module, so a span covers one outermost
call.  While an operation runs, each wrapped call records a span (name,
start, end, parent) in flat arrays; after the operation the spans' self
times (duration minus the direct children's durations) are rescaled by the
operation's reference-loop factor and summed per layer.  The spans are
written out when the run ends.

A hook whose function is missing is reported on standard error and its
metrics read 0, so that a refactor of the program's internals does not stop
the traced run.
"""

import functools
import json
import os
import statistics
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# span name: (module, attribute, recursive), or (module, class, method)
SPANS = {
    "syntax.tokenize": ("syntax", "tokenize", False),
    "syntax.parse_program": ("syntax", "parse_program", False),
    "terms.record": ("terms", "record", False),
    "taxonomy.label_match": ("taxonomy", "Taxonomy", "label_match"),
    "sexp.render_sexp": ("sexp", "render_sexp", False),
    "sexp.read_node": ("sexp", "read_node", False),
    "sexp.build_value": ("sexp", "build_value", False),
    "store.open": ("store", "Store", "__init__"),
    "store.abox_insert": ("store", "Store", "abox_insert"),
    "store.add_member": ("store", "Store", "add_member"),
    "store.commit": ("store", "Store", "commit"),
    "store.nearest": ("store", "Store", "nearest"),
    "typecheck.infer_static_type": ("typecheck", "infer_static_type", True),
    "typecheck.prove_subtype": ("typecheck", "prove_subtype", True),
    "typecheck.apply_coercion": ("typecheck", "apply_coercion", False),
    "unify.unify": ("unify", "unify", False),
    "classifier.find_members": ("classifier", "find_members", False),
    "classifier.promote_untyped": ("classifier", "promote_untyped", False),
    "classifier._run_static": ("classifier", "_run_static", False),
    "classifier._run_subset": ("classifier", "_run_subset", False),
    "rules.run_analytic": ("rules", "run_analytic", False),
    "rules.check_and_coerce": ("rules", "check_and_coerce", False),
    "rules.member_name": ("rules", "member_name", False),
    "cli.run_line": ("cli", "Session", "run_line"),
    "cli.known_names": ("cli", "Session", "known_names"),
    "cli._member_handle": ("cli", "_member_handle", False),
}

# per-layer metric: the spans whose self times it sums
SELF_TIMES = {
    "syntax.tokenize_s": ["syntax.tokenize"],
    "syntax.parse_s": ["syntax.parse_program"],
    "terms.record_s": ["terms.record"],
    "taxonomy.label_match_s": ["taxonomy.label_match"],
    "sexp.render_s": ["sexp.render_sexp"],
    "sexp.read_s": ["sexp.read_node", "sexp.build_value"],
    "store.insert_s": ["store.abox_insert"],
    "store.add_member_s": ["store.add_member"],
    "store.commit_s": ["store.commit"],
    "store.replay_s": ["store.open"],
    "store.nearest_s": ["store.nearest"],
    "typecheck.infer_s": ["typecheck.infer_static_type"],
    "typecheck.prove_s": ["typecheck.prove_subtype"],
    "typecheck.coerce_s": ["typecheck.apply_coercion"],
    "unify.s": ["unify.unify"],
    "classifier.find_s": ["classifier.find_members"],
    "classifier.promote_s": ["classifier.promote_untyped"],
    "classifier.static_s": ["classifier._run_static"],
    "classifier.subset_s": ["classifier._run_subset"],
    "rules.analytic_s": ["rules.run_analytic"],
    "rules.check_s": ["rules.check_and_coerce"],
    "rules.member_name_s": ["rules.member_name"],
    "cli.known_names_s": ["cli.known_names"],
    "cli.member_handle_s": ["cli._member_handle"],
    "cli.command_s": ["cli.run_line"],
}
SPAN_CALLS = {
    "taxonomy.label_match_calls": "taxonomy.label_match",
    "sexp.render_calls": "sexp.render_sexp",
    "typecheck.infer_calls": "typecheck.infer_static_type",
    "typecheck.prove_calls": "typecheck.prove_subtype",
    "unify.calls": "unify.unify",
}
COUNTS = ["syntax.decls", "store.fsyncs", "store.catalog_records",
          "classifier.promoted", "classifier.scanned", "classifier.candidates",
          "classifier.tuples", "classifier.matched", "rules.processed",
          "rules.rejected"]

UNITS = dict(
    {name: "s" for name in SELF_TIMES},
    **{name: "count" for name in list(SPAN_CALLS) + COUNTS},
    **{"classifier.match_ratio": "ratio", "store.bytes_written": "B",
       "store_bytes_per_decl": "B", "reopen_s": "s"})


class Tracer:
    def __init__(self):
        self.span_names = list(SPANS)
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("i")
        self.stack = [-1]
        self.on = False
        self.op_start = 0
        self.op_self_s = []        # (op id, {span name id: raw self seconds})
        self.calls = Counter()
        self.counts = Counter()
        self.patched = []          # (owner, attribute, original)
        self.missing = []

    # -- installation ----------------------------------------------------------

    def install(self):
        import flutes.cli  # noqa: F401  (every layer module is loaded)
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "flutes" or name.startswith("flutes.")}
        for nid, (mod, attr, how) in enumerate(SPANS.values()):
            self._hook(mods, mods[f"flutes.{mod}"], attr, how,
                       self._span(nid, self._on_result(self.span_names[nid])))
        self._hook(mods, mods["flutes.store"].os, "fsync", False,
                   self._count("store.fsyncs"))
        for method in ("set_watermark", "mk_kb_class", "same_as", "add_is_a"):
            self._hook(mods, mods["flutes.store"], "Store", method,
                       self._count("store.catalog_records"))

    def _hook(self, mods, home, attr, how, make):
        if isinstance(how, str):                     # a method of a class
            owner = getattr(home, attr, None)
            original = getattr(owner, how, None)
            if original is None:
                self.missing.append(f"{home.__name__}.{attr}.{how}")
                return
            self._patch(owner, how, original, make(original))
            return
        original = getattr(home, attr, None)
        if original is None:
            self.missing.append(f"{home.__name__}.{attr}")
            return
        wrapper = make(original)
        owners = [m for m in mods.values()
                  if m.__dict__.get(attr) is original and not (how and m is home)]
        if home not in mods.values():                # a module outside flutes
            owners = [home]
        for owner in owners:
            self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()
        if self.missing:
            print("tracing: missing hooks " + ", ".join(self.missing), file=sys.stderr)

    def _span(self, nid, on_result):
        starts, ends, names, parents, stack = (
            self.starts, self.ends, self.names, self.parents, self.stack)

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.on:
                    return fn(*args, **kwargs)
                i = len(names)
                names.append(nid)
                parents.append(stack[-1])
                starts.append(0.0)
                ends.append(0.0)
                stack.append(i)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    ends[i] = perf_counter()
                    starts[i] = t0
                    stack.pop()
                if on_result is not None:
                    on_result(result, args)
                return result
            return wrapper
        return make

    def _count(self, counter):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.on:
                    self.counts[counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _on_result(self, span):
        counts = self.counts

        def parsed(decls, args):
            counts["syntax.decls"] += len(decls)

        def found(report, args):
            store = args[0]
            counts["classifier.promoted"] += report.promoted
            for name, st in report.per_class.items():
                counts["classifier.scanned"] += st.scanned
                counts["classifier.candidates"] += st.candidates
                counts["classifier.tuples"] += st.tuples
                counts["classifier.matched"] += st.matched
                if store.kb_class(name).is_subset:
                    counts["subset_matched"] += st.matched

        def analysed(report, args):
            counts["rules.processed"] += report.processed
            counts["rules.rejected"] += len(report.failures)

        return {"syntax.parse_program": parsed, "classifier.find_members": found,
                "rules.run_analytic": analysed}.get(span)

    # -- operations --------------------------------------------------------------

    def recording(self, fn):
        """fn, with spans recorded while it runs."""
        def run():
            self.op_start = len(self.names)
            self.on = True
            try:
                return fn()
            finally:
                self.on = False
        return run

    def close_op(self, op):
        """Keep the self times of the operation that just ran, per span name."""
        lo, hi = self.op_start, len(self.names)
        child = [0.0] * (hi - lo)
        starts, ends, parents, names = self.starts, self.ends, self.parents, self.names
        for i in range(lo, hi):
            p = parents[i]
            if p >= 0:
                child[p - lo] += ends[i] - starts[i]
        self_s = defaultdict(float)
        for i in range(lo, hi):
            nid = names[i]
            self_s[nid] += ends[i] - starts[i] - child[i - lo]
            self.calls[nid] += 1
        self.op_self_s.append((op, self_s))

    # -- results -------------------------------------------------------------------

    def metrics(self, runner, decl_bytes) -> dict:
        """Per-layer metrics; self times are rescaled by each operation's
        reference-loop factor."""
        nid = {name: i for i, name in enumerate(self.span_names)}
        total = defaultdict(float)
        for op, self_s in self.op_self_s:
            scale = runner.clock.scale(op)
            for i, s in self_s.items():
                total[i] += s * scale
        out = {m: sum(total[nid[s]] for s in spans)
               for m, spans in SELF_TIMES.items()}
        out.update({m: self.calls[nid[s]] for m, s in SPAN_CALLS.items()})
        out.update({m: self.counts[m] for m in COUNTS})
        cands = self.counts["classifier.candidates"]
        out["classifier.match_ratio"] = (self.counts["subset_matched"] / cands
                                         if cands else 0.0)
        out["store.bytes_written"] = (statistics.median(runner.store_bytes)
                                      if runner.store_bytes else 0)
        out["store_bytes_per_decl"] = decl_bytes
        reopens = runner.times("reopen")
        out["reopen_s"] = statistics.median(reopens) if reopens else 0.0
        return out

    def write(self, path):
        """The spans: a JSON header line, then the arrays' raw bytes in the
        header's order."""
        header = {"names": self.span_names, "spans": len(self.names),
                  "arrays": ["names:i", "parents:i", "starts:d", "ends:d"],
                  "byteorder": sys.byteorder}
        tmp = path + ".tmp"
        with open(tmp, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        os.replace(tmp, path)
