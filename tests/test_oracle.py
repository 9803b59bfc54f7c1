import random

import pytest

from flutes import terms as T
from flutes.classifier import find_members
from flutes.oracle import oracle_extensions, oracle_members
from flutes.store import Store
from flutes.syntax import parse_program
from flutes.taxonomy import mk_concept

from termgen import build_worked_store, define_target_class, member_set
from test_classifier import _random_corpus, insert_program


def assert_agreement(store):
    ext = oracle_members(store)
    for name, cls in store.classes.items():
        assert dict(cls.members) == ext[name], name


def test_worked_example_agreement():
    s = build_worked_store()
    find_members(s)
    assert_agreement(s)


def test_target_class_agreement():
    s = build_worked_store()
    define_target_class(s, "joe")
    find_members(s)
    assert_agreement(s)


@pytest.mark.parametrize("seed", range(8))
def test_random_corpora_agreement(seed):
    rng = random.Random(1000 + seed)
    s = build_worked_store()
    insert_program(s, _random_corpus(rng, persons=15, txns=12))
    define_target_class(s, f"p{rng.randrange(15)}")
    find_members(s)
    assert_agreement(s)


def test_agreement_after_incremental_run():
    rng = random.Random(42)
    s = build_worked_store()
    insert_program(s, _random_corpus(rng, persons=10, txns=6))
    find_members(s)
    insert_program(s, """
    late1 := {"name"="Late", "dob"="1999-09-09"};
    latet := {"amount"=3.5, "type"=cc()};
    lateo := orig-of(late1, latet);
    later := recv-of(p0, latet);
    """)
    find_members(s)
    assert_agreement(s)


def test_oracle_is_independent_of_stored_members():
    # strip the engine's answer and confirm the oracle still computes it
    s = build_worked_store()
    find_members(s)
    ext = oracle_extensions(s)
    cls = s.kb_class("fi_related")
    assert ext["fi_related"] == member_set(cls)
    expected = member_set(cls)
    cls.members.clear()
    cls.by_name.clear()
    assert oracle_extensions(s)["fi_related"] == expected


def test_oracle_sees_check_literals():
    s = build_worked_store()
    insert_program(s, 'tz := {"amount"=10.0, "type"=cc()};')
    s.mk_kb_class("big", T.subset_ty(
        T.var("x"), T.type_name("trans"),
        T.exists("y", T.type_name("trans"), T.conj(
            T.equals(T.var("x"), T.var("y")),
            T.BuiltinPred(T.PredOp.GT, (
                T.FieldSelection(T.var("y"), mk_concept("amount")),
                T.num_f(100)))))))
    find_members(s)
    assert len(s.kb_class("big").members) == 1
    assert_agreement(s)


def test_oracle_handles_disjunction_and_negation():
    s = build_worked_store()
    insert_program(s, 'tz := {"amount"=10.0, "type"=cc()};')
    amount = T.FieldSelection(T.var("y"), mk_concept("amount"))
    s.mk_kb_class("oddball", T.subset_ty(
        T.var("x"), T.type_name("trans"),
        T.exists("y", T.type_name("trans"), T.conj(
            T.equals(T.var("x"), T.var("y")),
            T.disj(T.Not(T.BuiltinPred(T.PredOp.LE, (amount, T.num_f(100)))),
                   T.equals(amount, T.num_f(10.0)))))))
    find_members(s)
    assert len(s.kb_class("oddball").members) == 2
    assert_agreement(s)


def test_typed_term_holding_a_selection_is_coerced_as_its_value():
    # x's amount is a selection from t1; inference types it, and the
    # static class coerces x as the value it selects, in engine and oracle
    s = Store()
    amount = T.FieldSelection(T.term_name("t1"), mk_concept("amount"))
    s.abox_insert("t1", T.record(s.tax, [("amount", T.num_f(5)),
                                         ("memo", T.string("m"))]))
    s.abox_insert("x", T.record(s.tax, [("amount", amount)]))
    s.abox_insert("y", T.List((amount, T.num_f(7))))
    s.mk_kb_class("amt", T.record_ty(s.tax, [("amount", T.num_ty)]))
    s.mk_kb_class("nums", T.ListTy(T.num_ty))
    find_members(s)
    assert member_set(s.kb_class("amt")) == {
        T.record(s.tax, [("amount", T.num_f(5))])}
    assert [name for name, _ in s.kb_class("amt").members] == ["t1", "x"]
    assert member_set(s.kb_class("nums")) == {
        T.List((T.num_f(5), T.num_f(7)))}
    assert_agreement(s)
