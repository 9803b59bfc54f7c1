"""The benchmark's hooks still find what they wrap.

perfbench/tracing.py wraps functions of every layer by name and only
reports a missing one on standard error, where its per-layer metric reads
0; these tests make such a rename fail here instead.  The tracer is loaded
from its file as it stands.
"""

import os
import runpy
from collections import Counter

from flutes import terms as T
from flutes.sexp import parse_sexp
from flutes.store import KbClass, Store

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "perfbench", "tracing.py")


def test_every_hook_is_found():
    commit = Store.commit
    tracer = runpy.run_path(TRACING)["Tracer"]()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert Store.commit is commit


def test_member_structures_perfbench_reads():
    assert {"members", "by_name"} <= set(KbClass.__slots__)


def spans_of(run):
    """The names of the spans the tracer records while `run` runs."""
    tracer = runpy.run_path(TRACING)["Tracer"]()
    tracer.install()
    try:
        tracer.recording(run)()
    finally:
        tracer.uninstall()
    return Counter(tracer.span_names[i] for i in tracer.names)


def test_replay_and_parse_sexp_build_values_through_the_hook(tmp_path):
    # replay's value readers and parse_sexp enter through build_value, once
    # per value, so the tracer times the building of each
    path = str(tmp_path / "kb")
    with Store(path) as s:
        s.mk_kb_class("c", T.record_ty(s.tax, [("a", T.num_ty)]))
        s.abox_insert("x", T.record(s.tax, [("a", T.num_f(1))]))
        s.abox_insert("y", T.List((T.num_f(2),)))
    spans = spans_of(lambda: Store(path).close())
    assert (spans["sexp.read_node"], spans["sexp.build_value"]) == (4, 3)
    spans = spans_of(lambda: parse_sexp("(recordty ((a (numty))))", T.Type))
    assert (spans["sexp.read_node"], spans["sexp.build_value"]) == (1, 1)
