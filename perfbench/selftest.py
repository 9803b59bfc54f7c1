"""Self-test of the benchmark's checks; runs in seconds, without timed runs.

    python3 perfbench/selftest.py

1. One round of a small file-backed and a small in-memory workload must
   pass every check.
2. The generator's expected class extensions must equal flutes'
   reference enumerator (oracle_extensions) on the same store.
3. Each check, handed a deliberately wrong result, must count its
   operation as failed: a dropped member, an extra member, a person stored
   uncoerced, a flow member with an extra field, a reopened store whose
   dump_state() differs, and a wrong nearest set.

Exits 0 when every case holds, 1 otherwise.  The FAILED lines on standard
error are the wrong results being caught.
"""

import os
import shutil
import sys
import tempfile

import gen
import run
import timing

SMALL = {
    "disk": dict(gen.SPECS["bulk_disk"], persons=60, fillers=3, batches=3,
                 txns=45, hub_share=0.2, updates=10, self_share=0.1,
                 queries=20, query_batch=10),
    "mem": dict(gen.SPECS["stream_mem"], persons=40, batches=2, txns=40,
                updates=24, self_share=0.1, queries=20, query_batch=10),
}


class OracleRunner(run.Runner):
    """Compares the expectations with oracle_extensions just before the
    first analytic, when every class has been classified."""

    def __init__(self, *args):
        super().__init__(*args)
        self.expected: dict[str, set] = {}
        self.oracle_problems = None

    def _find(self, op):
        for cls, delta in op.expect["delta"].items():
            self.expected.setdefault(cls, set()).update(delta)
        return super()._find(op)

    def op_analytic(self, op):
        if self.oracle_problems is None:
            from flutes import oracle_extensions
            ext = oracle_extensions(self.session.store)
            got = {cls: {gen.plain(t) for t in terms} for cls, terms in ext.items()}
            self.oracle_problems = [cls for cls in got
                                    if got[cls] != self.expected.get(cls, set())]
        return super().op_analytic(op)


def _drop(new):
    cls = next(c for c in ("person", "fi_related", "m_target") if new.get(c))
    return dict(new, **{cls: new[cls][1:]})


def _extra(new):
    return dict(new, fi_related=new["fi_related"] + [gen.pair("fi-related", "p1", "p2")])


def _uncoerced(new):
    persons = list(new.get("person", []))
    if persons:
        _, fields = persons[0]
        persons[0] = ("rec", fields | {("x0", ("str", "v0"))})
    return dict(new, person=persons)


def _flow_extra(members):
    if members and any(label == "w" for label, _ in members[0][1]):
        _, fields = members[0]
        members = [("rec", fields | {("note", ("str", "extra"))})] + members[1:]
    return members


def _dump(text):
    return text.replace("member", "memebr", 1)


def _nearest(results):
    i = next(i for i, r in enumerate(results) if len(r) > 1)
    return results[:i] + [set(list(results[i])[1:])] + results[i + 1:]


WRONG = {   # case: (workload, check, substitute)
    "dropped member": ("mem", "find", _drop),
    "extra member": ("mem", "find", _extra),
    "person stored uncoerced": ("disk", "find", _uncoerced),
    "flow member with an extra field": ("mem", "analytic", _flow_extra),
    "reopened dump_state differs": ("disk", "reopen", _dump),
    "wrong nearest set": ("mem", "query", _nearest),
}


class WrongRunner(run.Runner):
    """Hands the named check one wrong result, the first time it applies."""

    def __init__(self, check, substitute, *args):
        super().__init__(*args)
        self.check, self.substitute, self.done = check, substitute, False

    def observe(self, check, results):
        if check != self.check or self.done:
            return results
        wrong = self.substitute(results)
        self.done = wrong != results
        return wrong


def _round(runner_cls, spec, *extra):
    workdir = tempfile.mkdtemp(dir=run.WORK)
    try:
        runner = runner_cls(*extra, spec, gen.build(spec, 7), workdir, timing.Clock())
        runner.round()
        return runner
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    if not os.path.isfile(os.path.join(run.SRC, "flutes", "__init__.py")):
        print(f"error: no flutes package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, run.SRC)
    os.makedirs(run.WORK, exist_ok=True)
    failures = []

    def report(case, ok, detail=""):
        print(f"{'ok  ' if ok else 'FAIL'} {case}{detail}")
        if not ok:
            failures.append(case)

    for name, spec in SMALL.items():
        runner = _round(OracleRunner, spec)
        report(f"{name}: a correct round passes every check",
               runner.failed == 0, f" ({runner.attempted} operations)")
        report(f"{name}: expected extensions equal oracle_extensions",
               runner.oracle_problems == [],
               f" (differs: {runner.oracle_problems})" if runner.oracle_problems else "")
    for case, (name, check, substitute) in WRONG.items():
        runner = _round(WrongRunner, SMALL[name], check, substitute)
        report(f"{case} counts as a failed operation",
               runner.done and runner.failed == 1,
               f" ({runner.failed} failed)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
