"""Incremental classification under any interleaving of operations.

A Hypothesis state machine drives one file-backed store through inserts
(forward references allowed), class definitions, taxonomy edits, an
analytic, `find_members`, and closing and reopening.  After every
`find_members` the engine equals the oracle; after every reopen
`dump_state()` is unchanged; and at the end the members equal those of a
fresh in-memory store given the same operations and one `find_members`.
Members are compared by name and term.  What it draws stays clear of two
open defects, each named where it applies.
"""

import os
import shutil
import tempfile

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from flutes import terms as T
from flutes.classifier import find_members
from flutes.oracle import oracle_members
from flutes.rules import mk_analytic, run_analytic
from flutes.store import Store
from flutes.taxonomy import mk_concept

from termgen import related_prop
from test_classifier import insert_program

# t3 equals t0 and has links of its own.  p1 and p3 are written with
# another label for dob, which only an edit makes a match; c stays
# untyped until p1 is stored.
TERMS = {
    "p0": '{"name"="P0", "dob"="1950"}',
    "p1": '{"name"="P1", "birth_date"="1951"}',
    "p2": '{"name"="P2", "dob"="1952"}',
    "p3": '{"name"="P3", "born"="1953"}',
    "t0": '{"amount"=10.0, "type"=cc()}',
    "t1": '{"amount"=20.0, "type"=check()}',
    "t2": '{"amount"=30.0, "type"=cc()}',
    "t3": '{"amount"=10.0, "type"=cc()}',
    "lim": '{"amount"=15.0, "type"=cc()}',
    "c": '{"name"="C", "dob"="1960", "link"=knows(p1, p1)}',
    "o0": "orig-of(p0, t0)",
    "r0": "recv-of(p3, t0)",
    "o1": "orig-of(p3, t1)",
    "r1": "recv-of(p1, t1)",
    "o2": "orig-of(p2, t2)",
    "r2": "recv-of(p2, t2)",
    "o3": "orig-of(p1, t2)",
    "r3": "recv-of(p0, t1)",
    "o4": "orig-of(p2, t3)",
    "r4": "recv-of(p0, t3)",
}

SINK = "sink"   # the one class an analytic writes


def _classes(tax) -> dict[str, tuple[tuple[str, ...], T.Type]]:
    """Each class of the pool: the classes its type names, and the type."""
    x, y = T.var("x"), T.var("y")
    person, trans = T.type_name("person"), T.type_name("trans")
    lim, hub = T.term_name("lim"), T.term_name("p3")

    def where(var_ty, check):
        return T.subset_ty(x, var_ty, T.exists("y", var_ty, T.conj(
            T.equals(x, y), check)))

    def around(a, b):
        return T.equals(T.triple("fi-related", a, b), T.var("f"))
    amount = mk_concept("amount")
    return {
        "person": ((), T.record_ty(tax, [("name", T.str_ty), ("dob", T.str_ty)])),
        "trans": ((), T.record_ty(tax, [("amount", T.num_ty),
                                        ("type", T.enum_ty(["check", "cc"]))])),
        "orig_of": (("person", "trans"), T.triple_ty("orig-of", person, trans)),
        "recv_of": (("person", "trans"), T.triple_ty("recv-of", person, trans)),
        "fi_related": (("trans", "orig_of", "recv_of"), T.subset_ty(
            T.triple("fi-related", T.var("p"), T.var("q")),
            T.triple_ty("fi-related", person, person), related_prop("p", "q"))),
        # a neighbourhood of p3, which may be stored later or never
        "near_hub": (("fi_related",), T.subset_ty(x, person, T.exists(
            "f", T.type_name("fi_related"), T.disj(around(x, hub), around(hub, x))))),
        "big": (("trans",), where(trans, T.BuiltinPred(T.PredOp.GT, (
            T.FieldSelection(x, amount), T.FieldSelection(lim, amount))))),
        "not_lim": (("trans",), where(trans, T.Not(T.equals(x, lim)))),
        # a binding that names an alias
        "tagged": (("person",), T.subset_ty(
            T.record(tax, [("ref", T.term_name("c")), ("who", x)]),
            T.record_ty(tax, [("ref", person), ("who", person)]),
            T.exists("y", person, T.equals(x, y)))),
        "konst": (("trans",), T.subset_ty(lim, trans, T.TRUE)),   # no literal
        # z is a guard: no literal binds it.  No pattern binds a skolem of a
        # subset class (FOUND 39: such a value is never its member).
        "originator": (("orig_of", "big"), T.subset_ty(x, person, T.exists(
            "o", T.type_name("orig_of"), T.exists("z", T.type_name("big"), T.equals(
                T.triple("orig-of", x, y), T.var("o")))))),
        # filled only by the analytic (FOUND 12: the classifier refills a
        # static class an analytic writes)
        SINK: (("person",), T.subset_ty(x, person, T.FALSE)),
    }


class Interleavings(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="flutes-interleavings-")
        self.path = os.path.join(self.dir, "kb")
        self.store = Store(self.path)
        self.ops = []     # every operation that a fresh store replays
        self.synonyms = set()

    def apply(self, op):
        op(self.store)
        self.ops.append(op)

    def definable(self) -> list[str]:
        classes = self.store.classes
        return [name for name, (deps, _) in _classes(self.store.tax).items()
                if name not in classes and all(d in classes for d in deps)]

    def insertable(self) -> list[str]:
        return [name for name in TERMS if name not in self.store.term_names()]

    @precondition(lambda self: self.insertable())
    @rule(data=st.data())
    def insert(self, data):
        names = data.draw(st.lists(st.sampled_from(self.insertable()),
                                   min_size=1, max_size=4, unique=True))
        text = "".join(f"{name} := {TERMS[name]};" for name in names)
        self.apply(lambda s: insert_program(s, text))

    @precondition(lambda self: self.definable())
    @rule(data=st.data(), count=st.integers(1, 3))
    def define(self, data, count):
        for _ in range(count):
            if self.definable():
                name = data.draw(st.sampled_from(self.definable()))
                self.apply(lambda s, n=name: s.mk_kb_class(n, _classes(s.tax)[n][1]))

    # edits at any step, repeated or not
    @rule(label=st.sampled_from(["birth_date", "born"]), synonym=st.booleans())
    def edit(self, label, synonym):
        if synonym:
            self.apply(lambda s: s.same_as("dob", label))
            self.synonyms.add(label)
        elif label not in self.synonyms:   # else it would close an is-a cycle
            self.apply(lambda s: s.add_is_a(label, "dob"))

    @precondition(lambda self: SINK in self.store.classes)
    @rule()
    def analytic(self):
        run_analytic(self.store, mk_analytic(self.store, "copy", "person", SINK,
                                             lambda t: t))

    @rule()
    def find(self):
        find_members(self.store)
        oracle = oracle_members(self.store)
        for name, cls in self.store.classes.items():
            if name != SINK:
                assert dict(cls.members) == oracle[name], name

    @rule()
    def reopen(self):
        state = self.store.dump_state()
        self.store.close()
        self.store = Store(self.path)
        assert self.store.dump_state() == state

    def teardown(self):
        try:
            self.find()
            fresh = Store()
            for op in self.ops:
                op(fresh)
            find_members(fresh)
            for name, cls in self.store.classes.items():
                if name != SINK:
                    assert (dict(cls.members)
                            == dict(fresh.kb_class(name).members)), name
        finally:
            self.store.close()
            shutil.rmtree(self.dir)


Interleavings.TestCase.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None)
TestInterleavings = Interleavings.TestCase
