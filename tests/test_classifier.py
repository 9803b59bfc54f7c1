import random

import pytest

from flutes import terms as T
from flutes.classifier import (CheckLit, EqLit, dependency_order,
                               find_members, promote_untyped, skolemize)
from flutes.errors import ClassDependencyError, UnsupportedPropError
from flutes.oracle import oracle_extensions
from flutes.store import Store
from flutes.syntax import parse_program

from termgen import (WORKED_CORPUS, build_worked_store, define_target_class,
                     define_tx_classes, related_prop)


def insert_program(store, text):
    for d in parse_program(text, store.tax, known=frozenset(store.typed)
                           | frozenset(store.untyped)):
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
        ty = T.subset_ty(T.num(1), T.num_ty, T.TRUE)
        clause = skolemize(ty)
        assert clause.skolems == ()
        assert clause.disjuncts == ((),)

    def test_false_body(self):
        ty = T.subset_ty(T.num(1), T.num_ty, T.FALSE)
        assert skolemize(ty).disjuncts == ()

    def test_skolem_on_left_of_equality(self):
        ty = T.subset_ty(
            T.var("x"), T.type_name("person"),
            T.exists("s", T.type_name("person"),
                     T.equals(T.var("s"), T.var("x"))))
        clause = skolemize(ty)
        assert clause.disjuncts == ((EqLit(T.var("x"), "s"),),)

    def test_negated_conjunction_distributes(self):
        lt = T.less_than(T.num(1), T.num(2))
        gt = T.greater_than(T.num(3), T.num(4))
        ty = T.subset_ty(T.num(1), T.num_ty, T.neg(T.conj(lt, gt)))
        clause = skolemize(ty)
        # not(a and b) -> not a or not b, each a negated check
        assert len(clause.disjuncts) == 2
        ops = [d[0].prop.op for d in clause.disjuncts]
        assert ops == [T.PredOp.LT, T.PredOp.GT]
        assert all(d[0].negated for d in clause.disjuncts)

    def test_negated_equality_stays_negated_check(self):
        ty = T.subset_ty(T.num(1), T.num_ty,
                         T.neg(T.equals(T.num(1), T.num(2))))
        lit = skolemize(ty).disjuncts[0][0]
        assert isinstance(lit, CheckLit)
        assert lit.negated and lit.prop.op is T.PredOp.EQ

    def test_equality_without_skolem_is_a_check(self):
        ty = T.subset_ty(T.var("x"), T.num_ty,
                         T.equals(T.var("x"), T.num(2)))
        lit = skolemize(ty).disjuncts[0][0]
        assert isinstance(lit, CheckLit)  # x is a binding var, not a skolem

    def test_exists_under_not_rejected(self):
        body = T.neg(T.exists("t", T.type_name("trans"), T.TRUE))
        ty = T.subset_ty(T.num(1), T.num_ty, body)
        with pytest.raises(UnsupportedPropError):
            skolemize(ty)

    def test_exists_inside_matrix_rejected(self):
        body = T.conj(T.TRUE, T.exists("t", T.type_name("trans"), T.TRUE))
        ty = T.subset_ty(T.num(1), T.num_ty, body)
        with pytest.raises(UnsupportedPropError):
            skolemize(ty)

    def test_non_alias_bound_rejected(self):
        ty = T.subset_ty(T.num(1), T.num_ty,
                         T.exists("t", T.num_ty, T.TRUE))
        with pytest.raises(UnsupportedPropError):
            skolemize(ty)


class TestDependencyOrder:
    def test_references_come_first(self, store):
        order = dependency_order(store)
        assert order.index("person") < order.index("orig_of")
        assert order.index("trans") < order.index("orig_of")
        assert order.index("orig_of") < order.index("fi_related")
        assert order.index("recv_of") < order.index("fi_related")

    def test_registration_order_among_independent(self, store):
        order = dependency_order(store)
        assert order[:2] == ["person", "trans"]

    def test_cycle_detected_before_any_work(self, store):
        # classes cannot be created cyclic through the API, so splice a
        # cycle into the resolved definitions directly
        store.classes["person"].definition = T.type_name("fi_related")
        with pytest.raises(ClassDependencyError):
            find_members(store)
        assert all(not c.members for c in store.classes.values())
        assert all(c.watermark == 0 for c in store.classes.values())


class TestPromoteUntyped:
    def test_reference_chains_promote_in_passes(self):
        s = Store()
        insert_program(s, """
        c := wraps(b);
        b := wraps(a);
        a := { "name": "base" };
        """)
        assert promote_untyped(s) == 3
        assert set(s.typed) == {"a", "b", "c"}
        assert not s.untyped

    def test_dangling_reference_stays_untyped(self):
        s = Store()
        insert_program(s, 'x := wraps(missing);')
        assert promote_untyped(s) == 0
        assert "x" in s.untyped

    def test_heterogeneous_list_stays_untyped(self):
        s = Store()
        s.abox_insert("m", T.term_list([T.num(1), T.string("two")]))
        assert promote_untyped(s) == 0
        assert "m" in s.untyped


class TestWorkedExample:
    def test_member_sets(self, store):
        find_members(store)
        tax = store.tax
        joe = T.record(tax, [("dob", T.string("1984-06-27")),
                             ("name", T.string("Joe"))])
        sue = T.record(tax, [("dob", T.string("1941-12-07")),
                             ("name", T.string("Sue"))])
        assert store.kb_class("person").member_terms.keys() == {joe, sue}
        assert store.kb_class("trans").member_terms.keys() == {
            T.record(tax, [("amount", T.num(500.0)),
                           ("type", T.atom("check"))])}
        assert store.kb_class("orig_of").member_terms.keys() == {
            T.triple("orig-of", T.term_name("joe"), T.term_name("t1"))}
        assert store.kb_class("recv_of").member_terms.keys() == {
            T.triple("recv-of", T.term_name("sue"), T.term_name("t1"))}
        assert store.kb_class("fi_related").member_terms.keys() == {
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
        assert report.order == ["person", "trans", "orig_of", "recv_of",
                                "fi_related"]
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
        assert store.kb_class("m_target").member_terms.keys() == {T.term_name("sue")}

    def test_target_other_direction(self, store):
        define_target_class(store, "sue")
        find_members(store)
        assert store.kb_class("m_target").member_terms.keys() == {T.term_name("joe")}

    def test_unrelated_target_is_empty(self, store):
        insert_program(store, 'amy := {"name"="Amy", "dob"="1990-01-01"};')
        define_target_class(store, "amy")
        find_members(store)
        assert store.kb_class("m_target").member_terms.keys() == set()


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
            store.kb_class("fi_related").member_terms.keys()
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
            assert (store.kb_class(name).member_terms.keys()
                    == fresh.kb_class(name).member_terms.keys())

    def test_membership_is_monotone_across_runs(self, store):
        find_members(store)
        snapshots = {n: set(c.member_terms) for n, c in store.classes.items()}
        insert_program(store, """
        t4 := {"amount"=1.0, "type"=cc()};
        o4 := orig-of(sue, t4);
        r4 := recv-of(sue, t4);
        """)
        find_members(store)
        for name, old in snapshots.items():
            assert old <= store.kb_class(name).member_terms.keys()

    def test_forward_reference_resolved_by_later_insert(self, store):
        # o5 mentions t5 before t5 exists; it must stay untyped, then
        # promote and classify once t5 arrives
        insert_program(store, 'o5 := orig-of(joe, t5);')
        find_members(store)
        assert "o5" in store.untyped
        assert len(store.kb_class("orig_of").members) == 1
        insert_program(store, 't5 := {"amount"=3.0, "type"=check()};')
        find_members(store)
        assert "o5" in store.typed
        assert len(store.kb_class("orig_of").members) == 2
        assert T.triple("fi-related", T.term_name("joe"),
                        T.term_name("sue")) in \
            store.kb_class("fi_related").member_terms.keys()

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
        engine = store.kb_class("originator").member_terms.keys()
        assert engine == oracle_extensions(store)["originator"]
        assert engine == {T.term_name("joe")}
        # once the guard's mark has moved, later runs stay incremental
        report = find_members(store)
        assert report.per_class["originator"].candidates == 0


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
        return T.record_select(T.var("y"), "amount")

    def test_threshold_filter(self):
        s = self.build(T.greater_than(self.amount(), T.num(100)))
        big = T.record(s.tax, [("amount", T.num(500.0)),
                               ("type", T.atom("check"))])
        assert s.kb_class("flt0").member_terms.keys() == {big}

    def test_negated_filter_complements(self):
        s = self.build(T.greater_than(self.amount(), T.num(100)),
                       T.neg(T.greater_than(self.amount(), T.num(100))))
        both = s.kb_class("trans").member_terms.keys()
        assert (s.kb_class("flt0").member_terms.keys()
                | s.kb_class("flt1").member_terms.keys()) == both
        assert not (s.kb_class("flt0").member_terms.keys()
                    & s.kb_class("flt1").member_terms.keys())

    @pytest.mark.parametrize("negated", [False, True], ids=["plain", "negated"])
    @pytest.mark.parametrize("op", [T.less_than, T.less_equal, T.greater_than,
                                    T.greater_equal],
                             ids=["lt", "le", "gt", "ge"])
    @pytest.mark.parametrize("base, label, bound", [
        ("trans", "amount", T.num(10)),
        ("person", "name", T.string("Joe")),
        ("trans", "amount", T.string("Joe")),
        ("person", "name", T.num(10)),
    ], ids=["number", "string", "number-string", "string-number"])
    def test_comparison_matches_oracle(self, base, label, bound, op, negated):
        # a negated comparison is one negated check, in engine and oracle
        # alike; a comparison of mismatched kinds fails either way
        s = build_worked_store()
        insert_program(s, 't2 := {"amount"=10.0, "type"=cc()};')
        check = op(T.record_select(T.var("y"), label), bound)
        s.mk_kb_class("flt", T.subset_ty(
            T.var("x"), T.type_name(base),
            T.exists("y", T.type_name(base), T.conj(
                T.equals(T.var("x"), T.var("y")),
                T.neg(check) if negated else check))))
        find_members(s)
        assert (s.kb_class("flt").member_terms.keys()
                == oracle_extensions(s)["flt"])

    def test_in_sequence_check(self):
        s = self.build(T.in_sequence(
            T.record_select(T.var("y"), "type"),
            [T.atom("cc"), T.atom("wire")]))
        small = T.record(s.tax, [("amount", T.num(10.0)),
                                 ("type", T.atom("cc"))])
        assert s.kb_class("flt0").member_terms.keys() == {small}

    def test_string_comparison_check(self):
        s = build_worked_store()
        s.mk_kb_class("older", T.subset_ty(
            T.var("x"), T.type_name("person"),
            T.exists("y", T.type_name("person"), T.conj(
                T.equals(T.var("x"), T.var("y")),
                T.less_than(T.record_select(T.var("y"), "birth_date"),
                            T.string("1960-01-01"))))))
        find_members(s)
        assert s.kb_class("older").member_terms.keys() == {
            T.record(s.tax, [("dob", T.string("1941-12-07")),
                             ("name", T.string("Sue"))])}

    def test_check_on_mismatched_kinds_fails_disjunct(self):
        s = self.build(T.less_than(self.amount(), T.string("big")))
        assert s.kb_class("flt0").member_terms.keys() == set()

    def test_check_that_never_grounds_fails_disjunct(self):
        # the proposition mentions the binding var, which no equality
        # literal ever binds, so every disjunct fails
        s = build_worked_store()
        s.mk_kb_class("never", T.subset_ty(
            T.var("x"), T.type_name("trans"),
            T.greater_than(T.record_select(T.var("x"), "amount"), T.num(1))))
        find_members(s)
        assert s.kb_class("never").member_terms.keys() == set()

    def test_constant_class_with_true_body(self):
        s = build_worked_store()
        ball = T.record(s.tax, [("name", T.string("carbon")),
                                ("dob", T.string("1000-01-01"))])
        s.mk_kb_class("konst", T.subset_ty(ball, T.type_name("person"),
                                           T.TRUE))
        find_members(s)
        assert s.kb_class("konst").member_terms.keys() == {ball}

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
        assert s2.kb_class("probe").member_terms.keys() == set()
        insert_program(s2, 'w1 := {"wired"=1.0};')
        find_members(s2)
        assert s2.kb_class("probe").member_terms.keys() == {marker}


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
                assert (a.kb_class(name).member_terms.keys()
                        == b.kb_class(name).member_terms.keys())
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
