import random

import pytest

from flutes import terms as T
from flutes.classifier import find_members
from flutes.oracle import oracle_extensions
from flutes.store import Store
from flutes.syntax import parse_program

from termgen import build_worked_store, define_target_class
from test_classifier import _random_corpus, insert_program


def assert_agreement(store):
    ext = oracle_extensions(store)
    for name in store.classes:
        engine = set(store.kb_class(name).member_terms)
        assert ext[name] == engine, name


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
    assert ext["fi_related"] == set(cls.member_terms)
    expected = set(cls.member_terms)
    cls.members.clear()
    cls.member_terms.clear()
    cls.by_name.clear()
    assert oracle_extensions(s)["fi_related"] == expected


def test_oracle_sees_check_literals():
    s = build_worked_store()
    insert_program(s, 'tz := {"amount"=10.0, "type"=cc()};')
    s.mk_kb_class("big", T.subset_ty(
        T.var("x"), T.type_name("trans"),
        T.exists("y", T.type_name("trans"), T.conj(
            T.equals(T.var("x"), T.var("y")),
            T.greater_than(T.record_select(T.var("y"), "amount"),
                           T.num(100))))))
    find_members(s)
    assert len(s.kb_class("big").members) == 1
    assert_agreement(s)


def test_oracle_handles_disjunction_and_negation():
    s = build_worked_store()
    insert_program(s, 'tz := {"amount"=10.0, "type"=cc()};')
    amount = T.record_select(T.var("y"), "amount")
    s.mk_kb_class("oddball", T.subset_ty(
        T.var("x"), T.type_name("trans"),
        T.exists("y", T.type_name("trans"), T.conj(
            T.equals(T.var("x"), T.var("y")),
            T.disj(T.neg(T.less_equal(amount, T.num(100))),
                   T.equals(amount, T.num(10.0)))))))
    find_members(s)
    assert len(s.kb_class("oddball").members) == 2
    assert_agreement(s)
