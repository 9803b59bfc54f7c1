import hashlib

import pytest

from flutes.classifier import find_members, promote_untyped
from flutes.errors import EvalError, RuleFailure, StoreError, TermError
from flutes import clause, rules
from flutes.clause import evaluate, evaluator
from flutes.rules import lambda_rule, member_name, mk_analytic, run_analytic
from flutes.sexp import render_sexp
from flutes.store import Store
from flutes.syntax import parse_program
from flutes.taxonomy import mk_concept, positional
from flutes.typecheck import infer_static_type
from flutes import terms as T

from termgen import member_set


CORPUS = """
joe := {"name"="Joe", "birth_date"="1984-06-27"};
sue := {"name"="Sue", "dob"="1941-12-07"};
t1 := {"amount" = 500.0, "type"=check()};
o1 := orig-of(joe, t1);
r1 := recv-of(sue, t1);
"""


@pytest.fixture
def store():
    s = Store()
    s.same_as("dob", "birth_date")
    for d in parse_program(CORPUS, s.tax):
        s.abox_insert(d.name, d.body)
    assert promote_untyped(s) == 5
    s.mk_kb_class("person", T.record_ty(s.tax, [("name", T.str_ty),
                                                ("dob", T.str_ty)]))
    return s


def person_members(store):
    for name in ["joe", "sue"]:
        raw = store.lookup(name)
        fields = {c.name if c.name else c.position: v for c, v in raw.fields}
        dob = fields.get("dob") or fields.get("birth_date")
        coerced = T.record(store.tax, [("dob", dob), ("name", fields["name"])])
        store.add_member("person", name, coerced)


class TestEvalTerm:
    def test_record_select(self, store):
        joe = store.lookup("joe")
        out = evaluate(T.FieldSelection(joe, mk_concept("name")), store)
        assert out == T.string("Joe")

    def test_select_through_synonym(self, store):
        joe = store.lookup("joe")
        sel = T.FieldSelection(joe, mk_concept("dob"))  # stored as birth_date
        assert evaluate(sel, store) == T.string("1984-06-27")

    def test_pred_arg_select(self, store):
        o1 = store.lookup("o1")
        out = evaluate(T.FieldSelection(o1, positional(0)), store)
        assert out == T.term_name("joe")

    def test_select_through_alias(self, store):
        sel = T.FieldSelection(T.term_name("joe"), mk_concept("name"))
        assert evaluate(sel, store) == T.string("Joe")

    def test_constants_evaluate_to_themselves(self, store):
        for t in [T.string("x"), T.num_f(3), T.atom("check"),
                  T.term_name("joe")]:
            assert evaluate(t, store) == t

    def test_errors(self, store):
        joe = store.lookup("joe")
        with pytest.raises(EvalError, match="no field"):
            evaluate(T.FieldSelection(joe, mk_concept("absent")), store)
        with pytest.raises(EvalError, match="argument 7"):
            evaluate(T.FieldSelection(store.lookup("o1"), positional(7)), store)
        with pytest.raises(EvalError, match="unbound alias"):
            evaluate(T.FieldSelection(T.term_name("ghost"), mk_concept("x")), store)
        with pytest.raises(EvalError, match="unbound variable"):
            evaluate(T.Var("p"), store)
        with pytest.raises(EvalError, match="non-record"):
            evaluate(T.FieldSelection(T.num_f(3), mk_concept("x")), store)


class TestLambdaRules:
    def test_projection_rule(self, store):
        person_members(store)
        store.mk_kb_class("names", T.record_ty(store.tax, [("name", T.str_ty)]))
        rule = lambda_rule(
            store, "names", "p", "person", "names",
            T.record(store.tax, [
                ("name", T.FieldSelection(T.Var("p"), mk_concept("name")))]))
        report = run_analytic(store, rule)
        assert (report.processed, report.inserted) == (2, 2)
        assert not report.failures
        assert member_set(store.kb_class("names")) == {
            T.record(store.tax, [("name", T.string(n))]) for n in ("Joe", "Sue")}

    def test_identity_rule(self, store):
        person_members(store)
        store.mk_kb_class("people", T.type_name("person"))
        rule = lambda_rule(store, "idp", "p", "person", "people", T.Var("p"))
        assert run_analytic(store, rule).inserted == 2
        assert (member_set(store.kb_class("people"))
                == member_set(store.kb_class("person")))

    def test_body_is_compiled_once_per_rule(self, store, monkeypatch):
        # every compilation goes through `evaluator`, its own parts too
        compiled = []

        def counting(x):
            compiled.append(x)
            return evaluator(x)
        monkeypatch.setattr(clause, "evaluator", counting)
        monkeypatch.setattr(rules, "evaluator", counting)
        person_members(store)
        store.mk_kb_class("names", T.record_ty(store.tax, [("name", T.str_ty)]))
        body = T.record(store.tax, [
            ("name", T.FieldSelection(T.Var("p"), mk_concept("name")))])
        rule = lambda_rule(store, "names", "p", "person", "names", body)
        assert compiled[0] is body
        n = len(compiled)
        assert run_analytic(store, rule).inserted == 2
        # a run evaluates the member bound to p, and compiles no body part
        assert compiled[n:] == [t for _, t in store.kb_class("person").members]

    def test_unbound_body_vars_rejected(self, store):
        with pytest.raises(TermError):
            lambda_rule(store, "bad", "p", "person", "person", T.Var("q"))

    def test_missing_field_is_rule_failure(self, store):
        person_members(store)
        store.mk_kb_class("strs", T.str_ty)
        rule = lambda_rule(store, "sel", "p", "person", "strs",
                           T.FieldSelection(T.Var("p"), mk_concept("absent")))
        report = run_analytic(store, rule)
        assert report.inserted == 0
        assert [m for m, _ in report.failures] == ["joe", "sue"]
        assert all("no field matching" in msg for _, msg in report.failures)

    def test_failed_subsumption_is_rule_failure(self, store):
        person_members(store)
        store.mk_kb_class("nums", T.num_ty)
        rule = lambda_rule(store, "wrong", "p", "person", "nums",
                           T.FieldSelection(T.Var("p"), mk_concept("name")))
        report = run_analytic(store, rule)
        assert report.inserted == 0 and len(report.failures) == 2
        assert all("not subsumed" in msg for _, msg in report.failures)
        assert not store.kb_class("nums").members

    def test_failures_are_isolated_per_member(self, store):
        # t1 has no name field, joe has one: one failure, one result
        store.mk_kb_class("entries", T.record_ty(store.tax, []))
        store.add_member("entries", "joe", store.lookup("joe"))
        store.add_member("entries", "t1", store.lookup("t1"))
        store.mk_kb_class("strs", T.str_ty)
        rule = lambda_rule(store, "sel", "p", "entries", "strs",
                           T.FieldSelection(T.Var("p"), mk_concept("name")))
        report = run_analytic(store, rule)
        assert (report.processed, report.inserted) == (2, 1)
        assert [m for m, _ in report.failures] == ["t1"]
        assert member_set(store.kb_class("strs")) == {T.string("Joe")}


class TestAnalytics:
    def test_identity_analytic_dedups(self, store):
        person_members(store)
        a = mk_analytic(store, "idp", "person", "person", lambda t: t)
        report = run_analytic(store, a)
        assert report.processed == 2
        # content-named members beside the derived ones, which hold equal
        # terms under the terms' names
        assert report.inserted == 2
        members = store.kb_class("person").members
        assert [name for name, _ in members[:2]] == ["joe", "sue"]
        assert [t for _, t in members[2:]] == [t for _, t in members[:2]]
        assert all(name.startswith("person#") for name, _ in members[2:])
        report = run_analytic(store, a)   # the content names are held now
        assert report.processed == 4
        assert report.inserted == 0
        assert len(members) == 4

    def test_projection_analytic_inserts(self, store):
        person_members(store)
        store.mk_kb_class("names", T.record_ty(store.tax, [("name", T.str_ty)]))

        def project(t):
            by_name = {c.name: v for c, v in t.fields}
            return T.record(store.tax, [("name", by_name["name"])])

        a = mk_analytic(store, "project", "person", "names", project)
        report = run_analytic(store, a)
        assert report.inserted == 2 and not report.failures
        out_ty = store.kb_class("names").ty
        for mname, t in store.kb_class("names").members:
            assert infer_static_type(t, store.tax, store.type_of) == out_ty
            assert mname.startswith("names#")

    def test_bad_output_reported_not_fatal(self, store):
        person_members(store)
        store.mk_kb_class("names", T.record_ty(store.tax, [("name", T.str_ty)]))
        calls = []

        def flaky(t):
            calls.append(t)
            if len(calls) == 1:
                return T.string("oops")  # wrong shape for the class
            return T.record(store.tax, [("name", T.string("ok"))])

        a = mk_analytic(store, "flaky", "person", "names", flaky)
        report = run_analytic(store, a)
        assert report.processed == 2
        assert report.inserted == 1
        assert len(report.failures) == 1

    def test_a_selection_is_coerced_as_the_value_it_selects(self, store):
        # a selection infers a type but no coercion takes one; evaluated, it
        # is coerced as the value it selects, as the static scan does
        store.mk_kb_class("txns", T.record_ty(store.tax, []))
        store.add_member("txns", "t1", store.lookup("t1"))
        store.add_member("txns", "joe", store.lookup("joe"))
        store.mk_kb_class("amounts", T.num_ty)

        def amount(m):
            if m == store.lookup("t1"):
                return T.FieldSelection(m, mk_concept("amount"))
            return T.Num(1.0)

        report = run_analytic(store, mk_analytic(store, "amt", "txns",
                                                 "amounts", amount))
        assert (report.processed, report.inserted, report.failures) == (2, 2, [])
        assert member_set(store.kb_class("amounts")) == {
            T.Num(500.0), T.Num(1.0)}

    def test_an_analytic_result_joins_a_class_as_a_stored_term_does(self):
        # w := {"n" = a.name}
        s = Store()
        s.abox_insert("a", T.record(s.tax, [("name", T.string("A"))]))
        s.abox_insert("w", T.record(s.tax, [
            ("n", T.FieldSelection(T.term_name("a"), mk_concept("name")))]))
        ty = T.record_ty(s.tax, [("n", T.str_ty)])
        s.mk_kb_class("named", ty)
        s.mk_kb_class("out", T.subset_ty(T.var("x"), ty, T.FALSE))
        find_members(s)
        want = T.record(s.tax, [("n", T.string("A"))])
        assert member_set(s.kb_class("named")) == {want}
        report = run_analytic(s, mk_analytic(s, "same", "named", "out",
                                             lambda m: s.lookup("w")))
        assert report.failures == []
        assert member_set(s.kb_class("out")) == {want}

    def test_raising_fn_reported_not_fatal(self, store):
        person_members(store)

        def boom(t):
            raise ValueError("kaput")

        a = mk_analytic(store, "boom", "person", "person", boom)
        report = run_analytic(store, a)
        assert report.inserted == 0
        assert len(report.failures) == 2
        assert "kaput" in report.failures[0][1]

    def test_registry_uniqueness(self, store):
        reg = {}
        mk_analytic(store, "a1", "person", "person", lambda t: t, reg)
        with pytest.raises(StoreError):
            mk_analytic(store, "a1", "person", "person", lambda t: t, reg)
        with pytest.raises(StoreError):
            mk_analytic(store, "a2", "person", "ghost", lambda t: t, reg)

    def test_member_names_are_content_addressed(self, store):
        one, two = render_sexp(T.num_f(1)), render_sexp(T.num_f(2))
        assert member_name("c", one) == member_name("c", one)
        assert member_name("c", one) != member_name("c", two)
        digest = hashlib.sha1(one.encode("utf-8")).hexdigest()[:12]
        assert member_name("c", one) == f"c#{digest}"

    def test_report_lines_format(self, store):
        person_members(store)
        a = mk_analytic(store, "idp", "person", "person", lambda t: t)
        lines = run_analytic(store, a).lines()
        assert lines[0] == "analytic\tidp"
        assert all("\t" in line for line in lines)
