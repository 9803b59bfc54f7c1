"""Known defects, each pinned as a strict xfail that asserts the right answer.

Each test names its defect by its FOUND line in CHANGES.md, or by its edit
case in ROADMAP.md item 4, and says what the program does instead.  The
change that mends a defect makes its test pass, which a strict xfail
reports as a failure, so that change also drops the mark.
"""

import pytest

from flutes import terms as T
from flutes.classifier import find_members
from flutes.errors import FlutesError, MalformedRecordError
from flutes.oracle import oracle_members
from flutes.rules import mk_analytic, run_analytic
from flutes.store import Store
from flutes.taxonomy import mk_concept

from termgen import build_worked_store, related_prop
from test_classifier import insert_program


@pytest.mark.xfail(strict=True, reason="FOUND 12: find_members derives into a "
                   "static class that an analytic writes to")
def test_a_class_an_analytic_writes_holds_only_what_it_wrote():
    s = Store()
    insert_program(s, 'a := {"name"="A"}; b := {"name"="B"};')
    s.mk_kb_class("person", T.record_ty(s.tax, [("name", T.str_ty)]))
    find_members(s)
    s.mk_kb_class("kept", T.type_name("person"))
    keep_a = mk_analytic(s, "keep_a", "person", "kept",
                         lambda t: t if t == s.lookup("a") else None)
    assert run_analytic(s, keep_a).inserted == 1
    asserted = list(s.kb_class("kept").members)
    find_members(s)
    # the program also derives a and b into kept
    assert s.kb_class("kept").members == asserted


@pytest.mark.xfail(strict=True, reason="FOUND 39: a skolem over a subset class "
                   "whose members are named by content never matches the "
                   "alias a pattern binds")
def test_a_join_over_a_subset_class_of_aliases_finds_its_pair():
    s = build_worked_store()
    x, y = T.var("x"), T.var("y")
    s.mk_kb_class("big_trans", T.subset_ty(
        x, T.type_name("trans"),
        T.exists("y", T.type_name("trans"), T.conj(
            T.equals(x, y),
            T.BuiltinPred(T.PredOp.GT, (T.FieldSelection(x, mk_concept("amount")),
                                        T.num_f(100)))))))
    big_related = T.exists("t", T.type_name("big_trans"), related_prop("p", "q").body)
    s.mk_kb_class("big_related", T.subset_ty(
        T.triple("fi-related", T.var("p"), T.var("q")),
        T.triple_ty("fi-related", T.type_name("person"), T.type_name("person")),
        big_related))
    find_members(s)
    assert len(s.kb_class("big_trans").members) == 1
    # o1 and r1 link joe and sue through t1, so one pair; the program and
    # the oracle both find none
    want = {T.triple("fi-related", T.term_name("joe"), T.term_name("sue"))}
    assert {t for _, t in s.kb_class("big_related").members} == want
    assert set(oracle_members(s)["big_related"].values()) == want


@pytest.mark.xfail(strict=True, reason="FOUND 71: Store.add_member checks no "
                   "type, so a number joins a record class and survives a reopen")
def test_add_member_refuses_a_term_outside_the_class_type(tmp_path):
    s = Store(tmp_path / "kb")
    s.mk_kb_class("person", T.record_ty(s.tax, [("name", T.str_ty)]))
    try:
        s.add_member("person", "bogus", T.Num(1.0))   # returns True
    except FlutesError:
        pass
    s.close()
    reopened = Store(tmp_path / "kb")
    assert "bogus" not in reopened.kb_class("person").by_name
    reopened.close()


@pytest.mark.xfail(strict=True, reason="FOUND 72: Store.add_member stores a "
                   "record whose labels are out of order, which reads back "
                   "sorted")
def test_add_member_refuses_labels_out_of_order():
    s = Store()
    s.mk_kb_class("person", T.record_ty(s.tax, [("name", T.str_ty),
                                                ("dob", T.str_ty)]))
    unsorted = T.Record(((mk_concept("name"), T.Str("X")),
                         (mk_concept("dob"), T.Str("1"))))
    with pytest.raises(MalformedRecordError):
        s.add_member("person", "m", unsorted)


@pytest.mark.xfail(strict=True, reason="edit case (b): an edit that makes two "
                   "labels of a stored record mutual is accepted")
def test_an_edit_joining_two_labels_of_a_stored_record_is_refused():
    s = Store()
    insert_program(s, 'x := {"name"="X", "dob"="1", "birth_date"="2"};')
    s.mk_kb_class("person", T.record_ty(s.tax, [("name", T.str_ty),
                                                ("dob", T.str_ty)]))
    find_members(s)
    # a store given the edit first refuses x at parse; after x, the edit
    # is accepted and the program keeps dob "1" where the oracle gives "2"
    with pytest.raises(FlutesError):
        s.same_as("dob", "birth_date")
