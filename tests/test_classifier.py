import functools
import io
import os
import random

import pytest

from flutes import classifier, clause, rules, store as store_module, terms as T
from flutes.benchgen import (GenConfig, define_schema, generate,
                             generate_increment, insert_text)
from flutes.classifier import find_members, promote_untyped
from flutes.clause import MAX_DISJUNCTS, CheckLit, EqLit, skolemize
from flutes.cli import run_session
from flutes.errors import StoreCorruptionError, UnsupportedPropError
from flutes.oracle import oracle_members
from flutes.sexp import parse_sexp, render_sexp
from flutes.store import LOG, Store
from flutes.syntax import parse_program
from flutes.taxonomy import mk_concept

from termgen import (WORKED_CORPUS, build_worked_store, define_target_class,
                     define_tx_classes, member_set, related_prop)


def insert_program(store, text):
    for d in parse_program(text, store.tax, known=frozenset(store.terms)):
        store.abox_insert(d.name, d.body)


@pytest.fixture
def store():
    return build_worked_store()


class TestSkolemize:
    def test_related_shape(self):
        ty = T.subset_ty(
            T.triple("fi-related", T.var("p"), T.var("q")),
            T.triple_ty("fi-related", T.type_name("person"),
                        T.type_name("person")),
            related_prop("p", "q"))
        clause = skolemize(ty)
        assert clause.skolems == (("t", "trans"), ("s", "orig_of"),
                                  ("r", "recv_of"))
        assert len(clause.disjuncts) == 1
        lits = clause.disjuncts[0]
        assert lits == (
            EqLit(T.triple("orig-of", T.var("p"), T.var("t")), "s"),
            EqLit(T.triple("recv-of", T.var("q"), T.var("t")), "r"))

    def test_target_shape_two_disjuncts(self):
        ty = T.subset_ty(
            T.var("p"), T.type_name("person"),
            T.exists("f", T.type_name("fi_related"), T.disj(
                T.equals(T.triple("fi-related", T.var("p"),
                                  T.term_name("joe")), T.var("f")),
                T.equals(T.triple("fi-related", T.term_name("joe"),
                                  T.var("p")), T.var("f")))))
        clause = skolemize(ty)
        assert clause.skolems == (("f", "fi_related"),)
        assert len(clause.disjuncts) == 2
        assert all(len(d) == 1 and isinstance(d[0], EqLit)
                   for d in clause.disjuncts)
        assert {d[0].skolem for d in clause.disjuncts} == {"f"}

    def test_true_body(self):
        ty = T.subset_ty(T.num_f(1), T.num_ty, T.TRUE)
        clause = skolemize(ty)
        assert clause.skolems == ()
        assert clause.disjuncts == ((),)

    def test_false_body(self):
        ty = T.subset_ty(T.num_f(1), T.num_ty, T.FALSE)
        assert skolemize(ty).disjuncts == ()

    def test_skolem_on_left_of_equality(self):
        ty = T.subset_ty(
            T.var("x"), T.type_name("person"),
            T.exists("s", T.type_name("person"),
                     T.equals(T.var("s"), T.var("x"))))
        clause = skolemize(ty)
        assert clause.disjuncts == ((EqLit(T.var("x"), "s"),),)

    def test_negated_conjunction_distributes(self):
        lt = T.BuiltinPred(T.PredOp.LT, (T.num_f(1), T.num_f(2)))
        gt = T.BuiltinPred(T.PredOp.GT, (T.num_f(3), T.num_f(4)))
        ty = T.subset_ty(T.num_f(1), T.num_ty, T.Not(T.conj(lt, gt)))
        clause = skolemize(ty)
        # not(a and b) -> not a or not b, each a negated check
        assert len(clause.disjuncts) == 2
        ops = [d[0].prop.op for d in clause.disjuncts]
        assert ops == [T.PredOp.LT, T.PredOp.GT]
        assert all(d[0].negated for d in clause.disjuncts)

    def test_negated_equality_stays_negated_check(self):
        ty = T.subset_ty(T.num_f(1), T.num_ty,
                         T.Not(T.equals(T.num_f(1), T.num_f(2))))
        lit = skolemize(ty).disjuncts[0][0]
        assert isinstance(lit, CheckLit)
        assert lit.negated and lit.prop.op is T.PredOp.EQ

    def test_equality_without_skolem_is_a_check(self):
        ty = T.subset_ty(T.var("x"), T.num_ty,
                         T.equals(T.var("x"), T.num_f(2)))
        lit = skolemize(ty).disjuncts[0][0]
        assert isinstance(lit, CheckLit)  # x is a binding var, not a skolem

    def test_exists_under_not_rejected(self):
        body = T.Not(T.exists("t", T.type_name("trans"), T.TRUE))
        ty = T.subset_ty(T.num_f(1), T.num_ty, body)
        with pytest.raises(UnsupportedPropError):
            skolemize(ty)

    def test_exists_inside_matrix_rejected(self):
        body = T.conj(T.TRUE, T.exists("t", T.type_name("trans"), T.TRUE))
        ty = T.subset_ty(T.num_f(1), T.num_ty, body)
        with pytest.raises(UnsupportedPropError):
            skolemize(ty)

    def test_non_alias_bound_rejected(self):
        ty = T.subset_ty(T.num_f(1), T.num_ty,
                         T.exists("t", T.num_ty, T.TRUE))
        with pytest.raises(UnsupportedPropError):
            skolemize(ty)


def outside_all(n: int) -> T.SubsetTy:
    """x outside each of n points: n conjuncts of (x < i or x > i), whose
    normal form has 2**n disjuncts."""
    x = T.var("x")
    return T.subset_ty(x, T.num_ty, functools.reduce(T.conj, [
        T.disj(T.BuiltinPred(T.PredOp.LT, (x, T.num_f(i))),
               T.BuiltinPred(T.PredOp.GT, (x, T.num_f(i))))
        for i in range(n)]))


class TestDnfCap:
    def test_cap_is_reached_and_kept(self):
        assert len(skolemize(outside_all(10)).disjuncts) == MAX_DISJUNCTS

    @pytest.mark.parametrize("n", [11, 40])
    def test_larger_normal_forms_are_refused_before_they_are_built(
            self, n, monkeypatch):
        built = []
        dnf = clause._dnf

        def counted(tree):
            out = dnf(tree)
            built.append(len(out))
            return out

        monkeypatch.setattr(clause, "_dnf", counted)
        with pytest.raises(UnsupportedPropError, match="1024 disjuncts"):
            skolemize(outside_all(n))
        assert max(built) == MAX_DISJUNCTS

    def test_defclass_of_a_refused_type_logs_nothing(self, tmp_path):
        path = str(tmp_path / "kb")
        with Store(path) as s:
            out = io.StringIO()
            line = f"defclass wide {render_sexp(outside_all(11))}"
            assert run_session(s, [line], out, timings=False,
                               stop_on_error=True) == 1
            assert out.getvalue().startswith("error\t")
            assert s.classes == {}
        assert not os.path.exists(os.path.join(path, LOG))

    @pytest.mark.parametrize("ty", [
        outside_all(11),
        T.subset_ty(T.var("x"), T.num_ty,
                    T.Not(T.exists("t", T.type_name("c"), T.TRUE))),
    ], ids=["wide", "inner-exists"])
    def test_api_class_that_cannot_be_compiled_is_refused(self, tmp_path, ty):
        path = str(tmp_path / "kb")
        with Store(path) as s:
            s.mk_kb_class("c", T.num_ty)
            with pytest.raises(UnsupportedPropError):
                s.mk_kb_class("bad", ty)
            s.abox_insert("one", T.num_f(1))
            assert find_members(s).per_class["c"].matched == 1
        with Store(path) as s:
            assert set(s.classes) == {"c"}

    def test_log_holding_a_class_above_the_cap_does_not_open(self, tmp_path):
        # an older version logged such a class; replay compiles every class
        # as definition does, and names the record it refuses
        path = str(tmp_path / "kb")
        with Store(path) as s:
            s._log("class", "wide", outside_all(11))
            s.commit()
        with pytest.raises(StoreCorruptionError,
                           match=f"{LOG}:2: .*1024 disjuncts"):
            Store(path)


class TestDependencyOrder:
    def test_references_come_first(self, store):
        order = list(find_members(store).per_class)
        assert order.index("person") < order.index("orig_of")
        assert order.index("trans") < order.index("orig_of")
        assert order.index("orig_of") < order.index("fi_related")
        assert order.index("recv_of") < order.index("fi_related")

    def test_registration_order_among_independent(self, store):
        order = list(find_members(store).per_class)
        assert order[:2] == ["person", "trans"]


class TestPromoteUntyped:
    def test_reference_chains_promote_in_passes(self):
        s = Store()
        insert_program(s, """
        c := wraps(b);
        b := wraps(a);
        a := { "name": "base" };
        """)
        assert promote_untyped(s) == 3
        assert {n for n, _ in s.typed_list} == {"a", "b", "c"}
        assert not s.untyped

    def test_dangling_reference_stays_untyped(self):
        s = Store()
        insert_program(s, 'x := wraps(missing);')
        assert promote_untyped(s) == 0
        assert "x" in s.untyped

    def test_heterogeneous_list_stays_untyped(self):
        s = Store()
        s.abox_insert("m", T.List((T.num_f(1), T.string("two"))))
        assert promote_untyped(s) == 0
        assert "m" in s.untyped

    def test_a_find_types_each_term_it_examines_once(self, monkeypatch):
        # promotion hands the type it infers to the store, so the static
        # scans infer nothing again
        calls = []
        for module in (classifier, rules, store_module):
            def counted(*args, _infer=module.infer_static_type,
                        _name=module.__name__):
                calls.append(_name)
                return _infer(*args)
            monkeypatch.setattr(module, "infer_static_type", counted)
        s = Store()
        s.mk_kb_class("named", T.record_ty(s.tax, [("name", T.str_ty)]))
        s.mk_kb_class("wrapper", T.record_ty(s.tax, [
            ("w", T.record_ty(s.tax, [("name", T.str_ty)]))]))
        # w waits for a: the first pass examines w, a and b, the second w
        insert_program(s, 'w := {"w"=a}; a := {"name"="A"}; b := {"name"="B"};')
        report = find_members(s)
        assert report.promoted == 3
        assert report.per_class["named"].scanned == 3
        assert report.per_class["wrapper"].scanned == 3
        assert calls == ["flutes.classifier"] * 4
        assert s.type_of("a") is s.type_of("b")
        calls.clear()
        insert_program(s, 'c := {"name"="C"};')
        assert find_members(s).per_class["named"].matched == 1
        assert calls == ["flutes.classifier"]


class TestWorkedExample:
    def test_member_sets(self, store):
        find_members(store)
        tax = store.tax
        joe = T.record(tax, [("dob", T.string("1984-06-27")),
                             ("name", T.string("Joe"))])
        sue = T.record(tax, [("dob", T.string("1941-12-07")),
                             ("name", T.string("Sue"))])
        assert member_set(store.kb_class("person")) == {joe, sue}
        assert member_set(store.kb_class("trans")) == {
            T.record(tax, [("amount", T.num_f(500.0)),
                           ("type", T.atom("check"))])}
        assert member_set(store.kb_class("orig_of")) == {
            T.triple("orig-of", T.term_name("joe"), T.term_name("t1"))}
        assert member_set(store.kb_class("recv_of")) == {
            T.triple("recv-of", T.term_name("sue"), T.term_name("t1"))}
        assert member_set(store.kb_class("fi_related")) == {
            T.triple("fi-related", T.term_name("joe"), T.term_name("sue"))}

    def test_static_members_keep_term_names(self, store):
        find_members(store)
        assert store.kb_class("person").by_name.keys() == {"joe", "sue"}
        assert store.kb_class("orig_of").by_name.keys() == {"o1"}

    def test_subset_member_names_are_content_addressed(self, store):
        find_members(store)
        (name,) = store.kb_class("fi_related").by_name.keys()
        assert name.startswith("fi_related#")

    def test_report_counts(self, store):
        report = find_members(store)
        assert report.promoted == 5
        assert list(report.per_class) == ["person", "trans", "orig_of",
                                          "recv_of", "fi_related"]
        assert report.per_class["person"].scanned == 5
        assert report.per_class["person"].matched == 2
        assert report.per_class["fi_related"].matched == 1
        assert report.per_class["fi_related"].tuples == 1

    def test_report_lines_shape(self, store):
        report = find_members(store)
        lines = report.lines(timings=False)
        assert lines[0] == "promoted\t5"
        assert "class.fi_related.matched\t1" in lines
        assert all("\t" in line for line in lines)
        assert not any("elapsed" in line for line in lines)
        assert any("elapsed" in line for line in report.lines(timings=True))

    def test_target_class(self, store):
        define_target_class(store, "joe")
        find_members(store)
        assert member_set(store.kb_class("m_target")) == {T.term_name("sue")}

    def test_target_other_direction(self, store):
        define_target_class(store, "sue")
        find_members(store)
        assert member_set(store.kb_class("m_target")) == {T.term_name("joe")}

    def test_unrelated_target_is_empty(self, store):
        insert_program(store, 'amy := {"name"="Amy", "dob"="1990-01-01"};')
        define_target_class(store, "amy")
        find_members(store)
        assert member_set(store.kb_class("m_target")) == set()


class TestEqualTerms:
    def test_equal_transactions_are_two_members_and_keep_their_links(
            self, tmp_path):
        # FOUND 11: t2 equals t1, and its links relate a to c
        path = str(tmp_path / "kb")
        with Store(path) as s:
            insert_program(s, """
            a := {"name"="A", "dob"="1"};
            b := {"name"="B", "dob"="2"};
            c := {"name"="C", "dob"="3"};
            t1 := {"amount"=10.0, "type"=cc()};
            t2 := {"amount"=10.0, "type"=cc()};
            o1 := orig-of(a, t1);
            r1 := recv-of(b, t1);
            o2 := orig-of(a, t2);
            r2 := recv-of(c, t2);
            """)
            define_tx_classes(s)
            find_members(s)
            trans = s.kb_class("trans").members
            assert [name for name, _ in trans] == ["t1", "t2"]
            assert trans[0][1] == trans[1][1]
            a, b, c = map(T.term_name, "abc")
            assert member_set(s.kb_class("fi_related")) == {
                T.triple("fi-related", a, b), T.triple("fi-related", a, c)}
            oracle = oracle_members(s)
            for name, cls in s.classes.items():
                assert dict(cls.members) == oracle[name], name
            state = s.dump_state()
        with Store(path) as s:
            assert s.dump_state() == state

    def test_an_inline_value_is_judged_alike_by_every_plan(self):
        # the first literal enumerates t1 and the second matches o1's
        # inline copy of it; a drive by orig_of binds t to the copy, a
        # member of the static class trans because it equals t1's term
        def build(split):
            s = Store()
            define_tx_classes(s)
            x, t = T.var("x"), T.var("t")
            rec = T.record(s.tax, [("amount", T.num_f(10)),
                                   ("type", T.atom("cc"))])
            s.mk_kb_class("k", T.subset_ty(x, T.type_name("person"), T.exists(
                "t", T.type_name("trans"), T.exists(
                    "o", T.type_name("orig_of"), T.conj(
                        T.equals(rec, t),
                        T.equals(T.triple("orig-of", x, t), T.var("o")))))))
            insert_program(s, 'a := {"name"="A", "dob"="1"};'
                              't1 := {"amount"=10.0, "type"=cc()};')
            if split:
                find_members(s)
            insert_program(s, 'o1 := orig-of(a, {"amount"=10.0, "type"=cc()});')
            find_members(s)
            return s

        incremental, fresh = build(True), build(False)
        assert (dict(incremental.kb_class("k").members)
                == dict(fresh.kb_class("k").members)
                == oracle_members(incremental)["k"])
        assert member_set(fresh.kb_class("k")) == {T.term_name("a")}


class TestIncrementality:
    def test_rerun_scans_nothing_and_adds_nothing(self, store):
        find_members(store)
        before = {n: list(c.members) for n, c in store.classes.items()}
        report = find_members(store)
        assert {n: list(c.members) for n, c in store.classes.items()} == before
        assert all(st.scanned == 0 and st.candidates == 0 and st.matched == 0
                   for st in report.per_class.values())

    def test_new_transaction_extends_fi_related(self, store):
        find_members(store)
        insert_program(store, """
        amy := {"name"="Amy", "dob"="1990-01-01"};
        t2 := {"amount"=75.0, "type"=cc()};
        o2 := orig-of(amy, t2);
        r2 := recv-of(joe, t2);
        """)
        report = find_members(store)
        assert report.promoted == 4
        assert T.triple("fi-related", T.term_name("amy"),
                        T.term_name("joe")) in \
            member_set(store.kb_class("fi_related"))
        # incremental pass scans only the new typed terms
        assert report.per_class["person"].scanned == 4
        assert len(store.kb_class("fi_related").members) == 2

    def test_incremental_equals_from_scratch(self, store):
        find_members(store)
        extra = """
        amy := {"name"="Amy", "dob"="1990-01-01"};
        t2 := {"amount"=75.0, "type"=cc()};
        o2 := orig-of(amy, t2);
        r2 := recv-of(joe, t2);
        t3 := {"amount"=9.5, "type"=cc()};
        o3 := orig-of(sue, t3);
        r3 := recv-of(amy, t3);
        """
        insert_program(store, extra)
        find_members(store)

        fresh = build_worked_store()
        insert_program(fresh, extra)
        find_members(fresh)
        for name in store.classes:
            assert (member_set(store.kb_class(name))
                    == member_set(fresh.kb_class(name)))

    def test_membership_is_monotone_across_runs(self, store):
        find_members(store)
        snapshots = {n: member_set(c) for n, c in store.classes.items()}
        insert_program(store, """
        t4 := {"amount"=1.0, "type"=cc()};
        o4 := orig-of(sue, t4);
        r4 := recv-of(sue, t4);
        """)
        find_members(store)
        for name, old in snapshots.items():
            assert old <= member_set(store.kb_class(name))

    def test_forward_reference_resolved_by_later_insert(self, store):
        # o5 mentions t5 before t5 exists; it must stay untyped, then
        # promote and classify once t5 arrives
        insert_program(store, 'o5 := orig-of(joe, t5);')
        find_members(store)
        assert "o5" in store.untyped
        assert len(store.kb_class("orig_of").members) == 1
        insert_program(store, 't5 := {"amount"=3.0, "type"=check()};')
        find_members(store)
        assert "o5" in store.terms and "o5" not in store.untyped
        assert len(store.kb_class("orig_of").members) == 2
        assert T.triple("fi-related", T.term_name("joe"),
                        T.term_name("sue")) in \
            member_set(store.kb_class("fi_related"))

    def test_guard_existential_rechecked_when_its_class_fills(self, store):
        # z is bound by no literal: it only asks that `flagged` be non-empty
        store.mk_kb_class("flagged", T.record_ty(store.tax, [("flag", T.str_ty)]))
        store.mk_kb_class("originator", T.subset_ty(
            T.var("x"), T.type_name("person"),
            T.exists("o", T.type_name("orig_of"),
            T.exists("z", T.type_name("flagged"),
                T.equals(T.triple("orig-of", T.var("x"), T.var("y")),
                         T.var("o"))))))
        find_members(store)
        assert not store.kb_class("originator").members
        insert_program(store, 'f1 := {"flag"="yes"};')
        find_members(store)
        engine = dict(store.kb_class("originator").members)
        assert engine == oracle_members(store)["originator"]
        assert set(engine.values()) == {T.term_name("joe")}
        # once the guard's mark has moved, later runs stay incremental
        report = find_members(store)
        assert report.per_class["originator"].candidates == 0

    @pytest.mark.parametrize("case, before", [
        ("gt", 0), ("gt-or-other", 1), ("not-eq", 0), ("inseq", 1)])
    def test_tuples_a_check_rejected_for_a_missing_alias_are_revisited(
            self, store, case, before):
        # x.amount > lim.amount fails on lim before lim is stored, so the
        # class keeps its marks until lim arrives; a check that compares lim
        # as a name does not fail on it, and the engine agrees with the
        # oracle on the value lim has as a name
        find_members(store)
        insert_program(store, 't2 := {"amount"=50.0, "type"=cc()};')
        x, lim = T.var("x"), T.term_name("lim")

        def amount(t):
            return T.FieldSelection(t, mk_concept("amount"))
        check = {
            "gt": T.BuiltinPred(T.PredOp.GT, (amount(x), amount(lim))),
            "gt-or-other": T.disj(
                T.BuiltinPred(T.PredOp.GT, (amount(x), amount(lim))),
                T.BuiltinPred(T.PredOp.GT, (amount(x), T.num_f(100)))),
            "not-eq": T.Not(T.equals(x, lim)),
            "inseq": T.InSequence(T.FieldSelection(x, mk_concept("type")),
                                  (T.Atom(mk_concept("cc")), lim)),
        }[case]
        store.mk_kb_class("big", T.subset_ty(
            x, T.type_name("trans"), T.exists("y", T.type_name("trans"), T.conj(
                T.equals(x, T.var("y")), check))))
        find_members(store)
        engine = dict(store.kb_class("big").members)
        assert engine == oracle_members(store)["big"]
        assert len(engine) == before
        insert_program(store, 'lim := {"amount"=1.0, "type"=cc()};')
        find_members(store)
        engine = dict(store.kb_class("big").members)
        assert engine == oracle_members(store)["big"]
        assert len(engine) == 2

    def test_a_comparison_reads_the_number_an_alias_names(self, store):
        # x.amount > lim compares t1's 500.0 with the number lim names; before
        # lim is stored, the class waits for it instead of reading false
        x = T.var("x")
        amount = T.FieldSelection(x, mk_concept("amount"))
        store.mk_kb_class("big", T.subset_ty(
            x, T.type_name("trans"), T.exists("y", T.type_name("trans"), T.conj(
                T.equals(x, T.var("y")),
                T.BuiltinPred(T.PredOp.GT, (amount, T.term_name("lim")))))))
        find_members(store)
        assert not store.kb_class("big").members
        assert store.kb_class("big").dep_marks is None
        insert_program(store, "lim := 100.0;")
        find_members(store)
        engine = dict(store.kb_class("big").members)
        assert engine == oracle_members(store)["big"]
        assert set(engine.values()) == {
            t for n, t in store.kb_class("trans").members if n == "t1"}

    @pytest.mark.parametrize("negated", [False, True], ids=["eq", "not-eq"])
    def test_an_equality_with_a_missing_alias_waits_for_it(self, store, negated):
        # lim's term equals t2's, so trans gains no member when it arrives:
        # only the kept marks bring the tuples back; either way, t2 or t1 is
        # the one member
        find_members(store)
        insert_program(store, 't2 := {"amount"=50.0, "type"=cc()};')
        x = T.var("x")
        check = T.equals(x, T.term_name("lim"))
        store.mk_kb_class("eq", T.subset_ty(
            x, T.type_name("trans"), T.exists("y", T.type_name("trans"), T.conj(
                T.equals(x, T.var("y")), T.Not(check) if negated else check))))
        for text, size in (("", 0), ('lim := {"amount"=50.0, "type"=cc()};', 1)):
            insert_program(store, text)
            find_members(store)
            engine = dict(store.kb_class("eq").members)
            assert engine == oracle_members(store)["eq"]
            assert len(engine) == size

    @pytest.mark.parametrize("case, before", [
        ("names", 0), ("selects", 2), ("names-and-selects", 0)])
    def test_tuples_a_binding_rejected_for_an_untyped_alias_are_revisited(
            self, store, case, before):
        # c stays untyped until w arrives: a binding that names c has no
        # type yet, one that only selects from c has, and both have every
        # tuple once c is typed
        find_members(store)
        insert_program(store, 'c := {"name"="C", "dob"="1", "amount"=5.0, '
                              '"link"=knows(w, w)};')
        x, c, person = T.var("x"), T.term_name("c"), T.type_name("person")
        amount = T.FieldSelection(c, mk_concept("amount"))
        name = T.FieldSelection(x, mk_concept("name"))
        binding, ty = {
            "names": ([("ref", c), ("who", x)], [("ref", person), ("who", person)]),
            "selects": ([("amt", amount), ("who", x)], [("amt", T.num_ty), ("who", person)]),
            "names-and-selects": ([("ref", c), ("who", name)],
                                  [("ref", person), ("who", T.str_ty)]),
        }[case]
        store.mk_kb_class("tagged", T.subset_ty(
            T.record(store.tax, binding), T.record_ty(store.tax, ty),
            T.exists("y", person, T.equals(x, T.var("y")))))
        for text, size in (("", before), ('w := {"name"="W", "dob"="2"};', 4)):
            insert_program(store, text)
            find_members(store)
            engine = dict(store.kb_class("tagged").members)
            assert engine == oracle_members(store)["tagged"]
            assert len(engine) == size

    def test_a_check_through_a_stored_alias_waits_for_the_one_it_names(
            self, store):
        # cfg is stored, but the z its ref names is not: cfg.ref.amount
        # fails on z, and the disjunct with no literal is solved again once
        # z arrives
        find_members(store)
        ref = T.FieldSelection(T.term_name("cfg"), mk_concept("ref"))
        store.abox_insert("cfg", T.record(store.tax, [("ref", T.term_name("z"))]))
        store.mk_kb_class("konst", T.subset_ty(
            T.term_name("joe"), T.type_name("person"),
            T.BuiltinPred(T.PredOp.GT, (T.FieldSelection(ref, mk_concept("amount")),
                                        T.num_f(0)))))
        for _ in range(2):
            find_members(store)
            assert not store.kb_class("konst").members
            assert not oracle_members(store)["konst"]
        insert_program(store, 'z := {"amount"=1.0, "type"=cc()};')
        find_members(store)
        engine = dict(store.kb_class("konst").members)
        assert engine == oracle_members(store)["konst"]
        assert len(engine) == 1

    def test_a_disjunct_with_no_literal_is_solved_once(self, tmp_path):
        path = str(tmp_path / "kb")
        s = build_worked_store(path)
        insert_program(s, 'lim := {"amount"=1.0, "type"=cc()};')
        s.mk_kb_class("konst", T.subset_ty(T.term_name("lim"),
                                           T.type_name("trans"), T.TRUE))
        tuples = []
        for _ in range(3):
            tuples.append(find_members(s).per_class["konst"].tuples)
            engine = dict(s.kb_class("konst").members)
            assert engine == oracle_members(s)["konst"]
            assert len(engine) == 1
        assert tuples == [1, 0, 0]
        state = s.dump_state()
        s.close()
        with Store(path) as s:      # solved, as its watermark says
            assert s.dump_state() == state
            assert find_members(s).per_class["konst"].tuples == 0

    def test_a_taxonomy_edit_solves_a_disjunct_with_no_literal_again(self):
        # ball's birth_date makes it a person only once it means dob
        s = Store()
        insert_program(s, 'ball := {"name"="carbon", "birth_date"="1000-01-01"};')
        s.mk_kb_class("person", T.record_ty(s.tax, [("name", T.str_ty),
                                                     ("dob", T.str_ty)]))
        s.mk_kb_class("konst", T.subset_ty(T.term_name("ball"),
                                           T.type_name("person"), T.TRUE))
        find_members(s)
        assert not s.kb_class("konst").members
        s.same_as("dob", "birth_date")
        find_members(s)
        engine = dict(s.kb_class("konst").members)
        assert engine == oracle_members(s)["konst"]
        assert len(engine) == 1

    def test_a_taxonomy_edit_judges_a_static_class_again(self, tmp_path):
        # bob's birth_date makes him a person only once it means dob
        path = str(tmp_path / "kb")
        s = Store(path)
        insert_program(s, 'ann := {"name"="Ann", "dob"="1990-01-01"};'
                          'bob := {"name"="Bob", "birth_date"="1991-01-01"};')
        s.mk_kb_class("person", T.record_ty(s.tax, [("name", T.str_ty),
                                                     ("dob", T.str_ty)]))
        find_members(s)
        assert len(s.kb_class("person").members) == 1
        s.same_as("dob", "birth_date")
        find_members(s)
        engine = dict(s.kb_class("person").members)
        assert engine == oracle_members(s)["person"]
        assert len(engine) == 2
        state = s.dump_state()
        s.close()
        with Store(path) as s:
            assert s.dump_state() == state

    @pytest.mark.parametrize("edit, a, b", [
        ("same_as", "dob", "dob"),
        ("same_as", "dob", "birth_date"),          # synonyms already
        ("add_is_a", "check", "instrument"),       # through payment already
    ])
    def test_an_edit_that_changes_no_relation_judges_nothing_again(
            self, tmp_path, edit, a, b):
        path = str(tmp_path / "kb")
        s = Store(path)
        s.same_as("dob", "birth_date")
        s.add_is_a("check", "payment")
        s.add_is_a("payment", "instrument")
        insert_text(s, generate(GenConfig(persons=40, transactions=30, seed=3)))
        define_schema(s, "p0")
        assert find_members(s).per_class["person"].scanned > 0
        getattr(s, edit)(a, b)
        report = find_members(s)
        assert all(st.scanned == 0 and st.candidates == 0 and st.tuples == 0
                   for st in report.per_class.values())
        oracle = oracle_members(s)
        for name, cls in s.classes.items():
            assert dict(cls.members) == oracle[name]
        state = s.dump_state()
        s.close()
        with open(os.path.join(path, LOG), encoding="utf-8") as fh:
            head = {"same_as": "same-as", "add_is_a": "is-a"}[edit]
            assert f'({head} "{a}" "{b}")' in fh.read()   # logged all the same
        with Store(path) as s:
            assert s.dump_state() == state
            assert find_members(s).per_class["person"].scanned == 0

    def test_a_field_pairing_that_first_fit_misses_is_found(self):
        # a takes b first, and then b finds no field; the complete pairing
        # a <- c, b <- b exists, so x is a member (edit case (a))
        s = Store()
        s.add_is_a("c", "a")
        s.add_is_a("b", "a")
        insert_program(s, 'x := {"b"="1", "c"="2"};')
        s.mk_kb_class("k", T.record_ty(s.tax, [("a", T.str_ty), ("b", T.str_ty)]))
        find_members(s)
        engine = dict(s.kb_class("k").members)
        assert engine == oracle_members(s)["k"]
        assert [render_sexp(t) for t in engine.values()] == [
            '(record ((a (str "2")) (b (str "1"))))']

    @pytest.mark.xfail(strict=True, reason="edit case (c): an edit keeps a "
                       "member whose coercion it redirects")
    def test_an_edit_that_redirects_a_coercion_derives_the_member_again(self):
        # with is-a c a alone, {a: str} takes x's c field; is-a b a makes
        # the canonical pairing take b, as a store given both edges first does
        def build(edges, edit=()):
            s = Store()
            for child, parent in edges:
                s.add_is_a(child, parent)
            insert_program(s, 'x := {"b"="1", "c"="2"};')
            s.mk_kb_class("k", T.record_ty(s.tax, [("a", T.str_ty)]))
            find_members(s)
            for child, parent in edit:
                s.add_is_a(child, parent)
            find_members(s)
            return [render_sexp(t) for _, t in s.kb_class("k").members]

        fresh = build([("c", "a"), ("b", "a")])
        assert fresh == ['(record ((a (str "1"))))']
        assert build([("c", "a")], edit=[("b", "a")]) == fresh

    def test_a_disjunct_with_no_literal_is_solved_again_when_its_guard_fills(
            self, store):
        marker = T.record(store.tax, [("name", T.string("m")),
                                      ("dob", T.string("2000-01-01"))])
        store.mk_kb_class("wires", T.record_ty(store.tax, [("wired", T.num_ty)]))
        store.mk_kb_class("probe", T.subset_ty(
            marker, T.type_name("person"),
            T.exists("w", T.type_name("wires"), T.TRUE)))
        tuples = []
        for text in ("", 'w1 := {"wired"=1.0};', 'w2 := {"wired"=2.0};', ""):
            insert_program(store, text)
            tuples.append(find_members(store).per_class["probe"].tuples)
            engine = dict(store.kb_class("probe").members)
            assert engine == oracle_members(store)["probe"]
        assert set(engine.values()) == {marker}
        assert tuples == [0, 1, 0, 0]


class TestChecksAndFilters:
    def build(self, *props):
        s = build_worked_store()
        insert_program(s, 't2 := {"amount"=10.0, "type"=cc()};')
        for i, prop in enumerate(props):
            s.mk_kb_class(f"flt{i}", T.subset_ty(
                T.var("x"),
                T.type_name("trans"),
                T.exists("y", T.type_name("trans"),
                         T.conj(T.equals(T.var("x"), T.var("y")), prop))))
        find_members(s)
        return s

    def amount(self):
        return T.FieldSelection(T.var("y"), mk_concept("amount"))

    def over_100(self):
        return T.BuiltinPred(T.PredOp.GT, (self.amount(), T.num_f(100)))

    def test_threshold_filter(self):
        s = self.build(self.over_100())
        big = T.record(s.tax, [("amount", T.num_f(500.0)),
                               ("type", T.atom("check"))])
        assert member_set(s.kb_class("flt0")) == {big}

    def test_negated_filter_complements(self):
        s = self.build(self.over_100(), T.Not(self.over_100()))
        both = member_set(s.kb_class("trans"))
        assert (member_set(s.kb_class("flt0"))
                | member_set(s.kb_class("flt1"))) == both
        assert not (member_set(s.kb_class("flt0"))
                    & member_set(s.kb_class("flt1")))

    @pytest.mark.parametrize("negated", [False, True], ids=["plain", "negated"])
    @pytest.mark.parametrize("op", [T.PredOp.LT, T.PredOp.LE, T.PredOp.GT,
                                    T.PredOp.GE],
                             ids=["lt", "le", "gt", "ge"])
    @pytest.mark.parametrize("base, label, bound", [
        ("trans", "amount", T.num_f(10)),
        ("person", "name", T.string("Joe")),
        ("trans", "amount", T.string("Joe")),
        ("person", "name", T.num_f(10)),
    ], ids=["number", "string", "number-string", "string-number"])
    def test_comparison_matches_oracle(self, base, label, bound, op, negated):
        # a negated comparison is one negated check, in engine and oracle
        # alike; a comparison of mismatched kinds fails either way
        s = build_worked_store()
        insert_program(s, 't2 := {"amount"=10.0, "type"=cc()};')
        check = T.BuiltinPred(
            op, (T.FieldSelection(T.var("y"), mk_concept(label)), bound))
        s.mk_kb_class("flt", T.subset_ty(
            T.var("x"), T.type_name(base),
            T.exists("y", T.type_name(base), T.conj(
                T.equals(T.var("x"), T.var("y")),
                T.Not(check) if negated else check))))
        find_members(s)
        assert dict(s.kb_class("flt").members) == oracle_members(s)["flt"]

    def test_in_sequence_check(self):
        s = self.build(T.InSequence(
            T.FieldSelection(T.var("y"), mk_concept("type")),
            (T.atom("cc"), T.atom("wire"))))
        small = T.record(s.tax, [("amount", T.num_f(10.0)),
                                 ("type", T.atom("cc"))])
        assert member_set(s.kb_class("flt0")) == {small}

    def test_string_comparison_check(self):
        s = build_worked_store()
        s.mk_kb_class("older", T.subset_ty(
            T.var("x"), T.type_name("person"),
            T.exists("y", T.type_name("person"), T.conj(
                T.equals(T.var("x"), T.var("y")),
                T.BuiltinPred(T.PredOp.LT, (
                    T.FieldSelection(T.var("y"), mk_concept("birth_date")),
                    T.string("1960-01-01")))))))
        find_members(s)
        assert member_set(s.kb_class("older")) == {
            T.record(s.tax, [("dob", T.string("1941-12-07")),
                             ("name", T.string("Sue"))])}

    def test_check_on_mismatched_kinds_fails_disjunct(self):
        s = self.build(
            T.BuiltinPred(T.PredOp.LT, (self.amount(), T.string("big"))))
        assert member_set(s.kb_class("flt0")) == set()

    def test_check_that_never_grounds_fails_disjunct(self):
        # the proposition mentions the binding var, which no equality
        # literal ever binds, so every disjunct fails
        s = build_worked_store()
        s.mk_kb_class("never", T.subset_ty(
            T.var("x"), T.type_name("trans"),
            T.BuiltinPred(T.PredOp.GT, (
                T.FieldSelection(T.var("x"), mk_concept("amount")),
                T.num_f(1)))))
        find_members(s)
        assert member_set(s.kb_class("never")) == set()

    def test_constant_class_with_true_body(self):
        s = build_worked_store()
        ball = T.record(s.tax, [("name", T.string("carbon")),
                                ("dob", T.string("1000-01-01"))])
        s.mk_kb_class("konst", T.subset_ty(ball, T.type_name("person"),
                                           T.TRUE))
        find_members(s)
        assert member_set(s.kb_class("konst")) == {ball}

    def test_unbound_existential_requires_nonempty_class(self):
        marker = T.record(Store().tax, [("name", T.string("m")),
                                        ("dob", T.string("2000-01-01"))])
        # wires has no members, so an existential over it cannot hold
        s2 = build_worked_store()
        s2.mk_kb_class("wires", T.record_ty(
            s2.tax, [("wired", T.num_ty)]))
        s2.mk_kb_class("probe", T.subset_ty(
            marker, T.type_name("person"),
            T.exists("w", T.type_name("wires"), T.TRUE)))
        find_members(s2)
        assert member_set(s2.kb_class("probe")) == set()
        insert_program(s2, 'w1 := {"wired"=1.0};')
        find_members(s2)
        assert member_set(s2.kb_class("probe")) == {marker}


class TestSelectionInBinding:
    # a binding that selects a field is evaluated before it is typed
    AMT = ("(subsetty (select (var a) amount) (numty) "
           "(exists t (tyalias trans) (pred eq (var a) (var t))))")

    def test_selected_values_are_members(self, tmp_path):
        s = build_worked_store(str(tmp_path / "kb"))
        s.mk_kb_class("amt", parse_sexp(self.AMT, T.Type))
        find_members(s)
        assert member_set(s.kb_class("amt")) == {T.Num(500.0)}
        assert dict(s.kb_class("amt").members) == oracle_members(s)["amt"]
        state = s.dump_state()
        s.close()
        with Store(str(tmp_path / "kb")) as again:
            assert again.dump_state() == state
            find_members(again)
            assert again.dump_state() == state


class TestPruning:
    @staticmethod
    def related_scans(prune):
        # r2 holds a second transaction that no orig-of link reaches
        s = build_worked_store()
        insert_program(s, 't2 := {"amount" = 7.0, "type"=cc()};'
                          'r2 := recv-of(joe, t2);')
        return find_members(s, prune=prune).per_class["fi_related"].candidates

    def test_spec_pruning_example(self):
        # with s bound to o1, only r1 (which holds t1) is a candidate for r
        assert self.related_scans(prune=False) - self.related_scans(prune=True) == 1

    def test_unconstrained_pattern_keeps_all(self):
        # driving s scans o1, then r1 alone; driving r, whose pattern names
        # no alias, scans both r1 and r2
        assert self.related_scans(prune=True) == 1 + 1 + 2

    def test_pruned_and_unpruned_agree(self):
        rng = random.Random(20260815)
        for trial in range(5):
            text = _random_corpus(rng, persons=12, txns=8)
            a, b = build_worked_store(), build_worked_store()
            for s in (a, b):
                insert_program(s, text)
                define_target_class(s, "p0")
            ra = find_members(a, prune=True)
            rb = find_members(b, prune=False)
            for name in a.classes:
                assert (member_set(a.kb_class(name))
                        == member_set(b.kb_class(name)))
            assert (sum(st.candidates for st in ra.per_class.values())
                    <= sum(st.candidates for st in rb.per_class.values()))

    def test_pruning_cuts_candidate_scans(self):
        rng = random.Random(7)
        text = _random_corpus(rng, persons=40, txns=30)
        a, b = build_worked_store(), build_worked_store()
        for s in (a, b):
            insert_program(s, text)
        ra = find_members(a, prune=True)
        rb = find_members(b, prune=False)
        assert (ra.per_class["fi_related"].candidates
                < rb.per_class["fi_related"].candidates)


SEEDED = GenConfig(persons=20, transactions=60, p_drop_orig=0.2,
                   p_drop_recv=0.2, seed=5)


def seeded_store(path=None):
    """A seeded corpus with the benchgen schema, plus fi_both: pairs related
    in both directions, whose second literal names two aliases once the
    first is bound."""
    s = Store(path)
    insert_text(s, generate(SEEDED))
    define_schema(s, "p0")
    p, q = T.var("p"), T.var("q")
    s.mk_kb_class("fi_both", T.subset_ty(
        T.triple("fi-both", p, q),
        T.triple_ty("fi-both", T.type_name("person"), T.type_name("person")),
        T.exists("a", T.type_name("fi_related"),
                 T.exists("b", T.type_name("fi_related"), T.conj(
                     T.equals(T.triple("fi-related", p, q), T.var("a")),
                     T.equals(T.triple("fi-related", q, p), T.var("b")))))))
    return s


class TestSeededCounts:
    # (scanned, candidates, tuples, matched) per class, as recorded before
    # subset solving moved to per-shape proofs and the per-class alias index
    FIRST = {"person": (184, 0, 0, 20), "trans": (184, 0, 0, 60),
             "orig_of": (184, 0, 0, 51), "recv_of": (184, 0, 0, 53),
             "fi_related": (0, 148, 44, 41), "m_target": (0, 10, 5, 5),
             "fi_both": (0, 134, 5, 5)}
    INCREMENT = {"person": (20, 0, 0, 5), "trans": (20, 0, 0, 5),
                 "orig_of": (20, 0, 0, 5), "recv_of": (20, 0, 0, 5),
                 "fi_related": (0, 15, 5, 5), "m_target": (0, 2, 1, 1),
                 "fi_both": (0, 15, 0, 0)}

    @staticmethod
    def counts(report):
        return {name: (st.scanned, st.candidates, st.tuples, st.matched)
                for name, st in report.per_class.items()}

    def test_counts_equal_the_recorded_ones(self):
        s = seeded_store()
        assert self.counts(find_members(s)) == self.FIRST
        insert_text(s, generate_increment(SEEDED))
        assert self.counts(find_members(s)) == self.INCREMENT
        assert set(self.counts(find_members(s)).values()) == {(0, 0, 0, 0)}
        expected = oracle_members(s)
        for name, cls in s.classes.items():
            assert dict(cls.members) == expected[name]


def index_from_graph(store):
    """Per class and alias, the ascending indices of the members whose name
    the containment graph lists as holding the alias."""
    out = {}
    for name, cls in store.classes.items():
        out[name] = {}
        for alias, holders in store.contained_by_map.items():
            idxs = [i for i, (m, _) in enumerate(cls.members) if m in holders]
            if idxs:
                out[name][alias] = idxs
    return out


class TestAliasIndex:
    def test_index_follows_the_containment_graph(self, tmp_path):
        path = str(tmp_path / "kb")
        s = seeded_store(path)
        find_members(s)
        insert_text(s, generate_increment(SEEDED))
        find_members(s)
        by_alias = {name: cls.by_alias for name, cls in s.classes.items()}
        assert by_alias == index_from_graph(s)
        assert by_alias["fi_related"]
        s.close()
        with Store(path) as again:
            assert {name: cls.by_alias
                    for name, cls in again.classes.items()} == by_alias
            assert index_from_graph(again) == by_alias


def _random_corpus(rng, persons, txns):
    lines = []
    for i in range(persons):
        label = "dob" if rng.random() < 0.5 else "birth_date"
        lines.append(f'p{i} := {{"name"="P{i}", "{label}"="19{i % 90:02d}-01-01"}};')
    for i in range(txns):
        kind = rng.choice(["check", "cc"])
        lines.append(f'tx{i} := {{"amount"={rng.randint(1, 5000)}.0, '
                     f'"type"={kind}()}};')
        if rng.random() < 0.8:
            lines.append(f'ox{i} := orig-of(p{rng.randrange(persons)}, tx{i});')
        if rng.random() < 0.8:
            lines.append(f'rx{i} := recv-of(p{rng.randrange(persons)}, tx{i});')
    return "\n".join(lines)
