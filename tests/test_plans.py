"""Join plans: compiled once per subset class (clause.Plan), walked by the
classifier, checked against the oracle and the unpruned solver."""

import random

import pytest

from flutes import clause, terms as T
from flutes.benchgen import GenConfig, define_schema, generate, insert_text
from flutes.classifier import find_members
from flutes.clause import skolemize
from flutes.oracle import oracle_members
from flutes.store import Store
from flutes.taxonomy import mk_concept

from termgen import build_worked_store, member_set
from test_classifier import insert_program

P, Q, T_, X = T.var("p"), T.var("q"), T.var("t"), T.var("x")
PERSON = T.type_name("person")


def amount_over(n):
    amount = T.FieldSelection(T_, mk_concept("amount"))
    return T.BuiltinPred(T.PredOp.GT, (amount, T.num_f(n)))


def related_with(head, check, t_class="trans"):
    """fi_related under a check: (p, q) joined through a transaction t of
    t_class whose orig-of and recv-of links are the skolems s and r."""
    links = T.conj(T.equals(T.triple("orig-of", P, T_), T.var("s")),
                   T.equals(T.triple("recv-of", Q, T_), T.var("r")))
    return T.subset_ty(
        T.triple(head, P, Q), T.triple_ty(head, PERSON, PERSON),
        T.exists("t", T.type_name(t_class),
                 T.exists("s", T.type_name("orig_of"),
                          T.exists("r", T.type_name("recv_of"),
                                   T.conj(links, check)))))


# checks naming variables that different steps bind
CHECKS = {
    "large": amount_over(2000),                      # t: the first step
    "apart": T.Not(T.equals(P, Q)),                  # p and q: both steps
    "large_or_self": T.disj(amount_over(4000), T.equals(P, Q)),
    "ground": T.BuiltinPred(T.PredOp.LT,              # before any step
                            (T.num_f(1), T.num_f(2))),
    "named": T.InSequence(Q, (P, T.term_name("p0"), T.term_name("p1"))),
}


def self_link_class():
    """x such that some fi_related member pairs x with itself: b is bound
    by the first literal's pattern and only checked by the second."""
    return T.subset_ty(X, PERSON, T.exists(
        "a", T.type_name("fi_related"), T.exists("b", PERSON, T.conj(
            T.equals(T.triple("fi-related", X, T.var("b")), T.var("a")),
            T.equals(X, T.var("b"))))))


def define_planned(store):
    for name, check in CHECKS.items():
        store.mk_kb_class(f"fi_{name}", related_with(f"fi-{name}", check))
    store.mk_kb_class("selfish", self_link_class())
    # t is bound by the link patterns to any transaction; only the member
    # test keeps it to the cheques
    store.mk_kb_class("cheque", T.record_ty(store.tax, [
        ("amount", T.num_ty), ("type", T.enum_ty(["check"]))]))
    store.mk_kb_class("fi_cheque", related_with("fi-cheque", T.TRUE, "cheque"))


class TestCompiledPlans:
    def test_steps_and_checks_are_fixed_per_order(self):
        apart, large = CHECKS["apart"], amount_over(2000)
        (plans,) = skolemize(related_with("h", T.conj(large, apart))).plans
        assert plans.classes == ("orig_of", "recv_of")
        assert plans.guards == ()
        full, drive_r = plans.drives
        # (literal, skolem, enumerates, bound pattern variables, checks)
        assert [(s.lit, s.skolem, s.enumerates, s.bound,
                 [c.prop for c in s.checks]) for s in full.steps] == [
            (0, "s", True, (), [large]),
            (1, "r", True, ("t",), [apart.body])]
        assert [(s.lit, s.skolem, s.enumerates, s.bound,
                 [c.prop for c in s.checks]) for s in drive_r.steps] == [
            (1, "r", True, (), [large]),
            (0, "s", True, ("t",), [apart.body])]
        assert full.steps[1].checks[0].negated
        assert full.steps[0].aliases == frozenset()
        # t is bound by the patterns, never enumerated: a member test
        assert (full.checks, full.members, full.grounds) == (
            (), (("t", "trans"),), True)

    def test_ground_check_runs_before_the_first_step(self):
        (plans,) = skolemize(related_with("h", CHECKS["ground"])).plans
        assert [c.prop for c in plans.drives[0].checks] == [CHECKS["ground"]]
        assert all(not s.checks for s in plans.drives[0].steps)

    def test_a_check_that_never_grounds_is_fixed_as_such(self):
        ty = T.subset_ty(X, T.type_name("trans"), T.exists(
            "y", T.type_name("trans"), T.conj(
                T.equals(T.var("y"), T.var("y")),
                T.BuiltinPred(T.PredOp.GT, (
                    T.FieldSelection(X, mk_concept("amount")),
                    T.num_f(1))))))
        (plans,) = skolemize(ty).plans
        assert not plans.drives[0].grounds

    def test_a_skolem_bound_by_a_pattern_is_checked_not_enumerated(self):
        (plans,) = skolemize(self_link_class()).plans
        full, drive_b = plans.drives
        assert [(s.skolem, s.enumerates) for s in full.steps] == [
            ("a", True), ("b", False)]
        # b's value comes out of a member of a: it must denote a person
        assert full.members == (("b", "person"),)
        # driven by x = b, the first step enumerates persons and the second
        # finds x and b bound
        assert [(s.skolem, s.enumerates, s.bound) for s in drive_b.steps] == [
            ("b", True, ()), ("a", True, ("b", "x"))]

    def test_a_pattern_naming_its_own_skolem_is_compared_with_the_member(self):
        # orig-of(x, s) = s asks for a link whose transaction is the link
        # itself, which no ground term is; binding s to the pattern's part
        # and then to the member would let every link through
        s = build_worked_store()
        s.mk_kb_class("loop", T.subset_ty(X, PERSON, T.exists(
            "s", T.type_name("orig_of"),
            T.equals(T.triple("orig-of", X, T.var("s")), T.var("s")))))
        find_members(s)
        assert s.kb_class("loop").members == []
        assert oracle_members(s)["loop"] == {}

    def test_a_skolem_no_literal_names_is_a_guard(self):
        ty = T.subset_ty(X, PERSON, T.exists("w", T.type_name("trans"),
                                             T.exists("y", PERSON,
                                                      T.equals(X, T.var("y")))))
        (plans,) = skolemize(ty).plans
        assert plans.guards == ("trans",)


SEEDS = [GenConfig(persons=18, transactions=40, p_drop_orig=0.2,
                   p_drop_recv=0.2, seed=seed) for seed in (11, 12, 13)]


def planned_store(cfg):
    s = Store()
    insert_text(s, generate(cfg))
    define_schema(s, "p0")
    define_planned(s)
    return s


def members(store):
    return {name: dict(cls.members) for name, cls in store.classes.items()}


def increment(cfg, step):
    """Fresh transactions between existing persons, self-links included,
    some with one link withheld until the next step."""
    rng = random.Random(cfg.seed * 100 + step)
    lines = []
    for i in range(4):
        a = rng.randrange(cfg.persons)
        b = a if i == 0 else rng.randrange(cfg.persons)
        lines.append(f'x{step}t{i} := {{"amount"={rng.randint(1, 9999)}.0, '
                     f'"type"=cc()}};')
        lines.append(f"x{step}o{i} := orig-of(p{a}, x{step}t{i});")
        if i != 3:
            lines.append(f"x{step}r{i} := recv-of(p{b}, x{step}t{i});")
        if step > 1:
            lines.append(f"y{step}r{i} := recv-of(p{b}, x{step - 1}t3);")
    return "\n".join(lines)


@pytest.mark.parametrize("cfg", SEEDS, ids=lambda c: f"seed{c.seed}")
def test_engine_oracle_and_unpruned_agree(cfg):
    pruned, unpruned = planned_store(cfg), planned_store(cfg)
    for step in range(4):
        if step:
            for s in (pruned, unpruned):
                insert_program(s, increment(cfg, step))
        a = find_members(pruned, prune=True)
        b = find_members(unpruned, prune=False)
        assert members(pruned) == members(unpruned)
        assert members(pruned) == oracle_members(pruned)
        for name in pruned.classes:
            assert a.per_class[name].tuples == b.per_class[name].tuples
            assert (a.per_class[name].candidates
                    <= b.per_class[name].candidates)


def test_every_planned_class_gains_members():
    # the comparison above is not vacuous
    s = planned_store(SEEDS[0])
    insert_program(s, 'self1 := {"amount"=4500.0, "type"=cc()};'
                      'selfo := orig-of(p3, self1); selfr := recv-of(p3, self1);')
    find_members(s)
    for name in ("fi_large", "fi_apart", "fi_large_or_self", "fi_ground",
                 "fi_named", "selfish", "fi_cheque"):
        assert s.kb_class(name).members, name
    assert members(s) == oracle_members(s)


def benchgen_store():
    s = Store()
    insert_text(s, generate(GenConfig(persons=30, transactions=40, seed=3)))
    define_schema(s, "p0")
    return s


def test_a_binding_variable_that_no_literal_binds_yields_no_member():
    # x = p binds x, never y: each of the 30 tuples reaches the binding,
    # which has no value for y
    s = benchgen_store()
    person = T.type_name("person")
    s.mk_kb_class("loose", T.subset_ty(T.var("y"), person, T.exists(
        "p", person, T.equals(T.var("x"), T.var("p")))))
    report = find_members(s)
    assert report.per_class["loose"].tuples == 30
    assert s.kb_class("loose").members == []
    assert oracle_members(s)["loose"] == {}


def test_a_pattern_bound_value_of_a_subset_class_is_named_by_content():
    # m is bound by matching fi_related members, never enumerated, so
    # whether its value is an m_target member is decided by the name its
    # storage form gives: 6 of the 40 candidates pass
    s = benchgen_store()
    q, m = T.var("q"), T.var("m")
    s.mk_kb_class("k", T.subset_ty(q, T.type_name("person"), T.exists(
        "f", T.type_name("fi_related"), T.exists(
            "m", T.type_name("m_target"),
            T.equals(T.triple("fi-related", m, q), T.var("f"))))))
    st = find_members(s).per_class["k"]
    assert (st.candidates, st.tuples, st.matched) == (40, 6, 6)
    assert dict(s.kb_class("k").members) == oracle_members(s)["k"]


class TestCheckEvaluation:
    CORPUS = """
    joe := {"name"="Joe", "dob"="1984-06-27"};
    sue := {"name"="Sue", "dob"="1941-12-07"};
    ann := {"name"="Ann", "dob"="1977-01-01"};
    t1 := {"amount"=500.0, "type"=check()};
    t2 := {"amount"=50.0, "type"=cc()};
    t3 := {"amount"=900.0, "type"=cc()};
    o1 := orig-of(joe, t1); o2 := orig-of(sue, t2); o3 := orig-of(ann, t3);
    r1 := recv-of(sue, t1); r2 := recv-of(joe, t2);
    """

    def counted(self, monkeypatch):
        """The propositions of the compiled check tests called, in order:
        every test the clause compiles from now on records its calls."""
        calls = []
        real = clause.check_test

        def compiling(p):
            test = real(p)

            def counting(subst, store):
                calls.append(p)
                return test(subst, store)
            return counting

        monkeypatch.setattr(clause, "check_test", compiling)
        return calls

    def test_each_check_is_evaluated_where_it_becomes_ground(self, monkeypatch):
        s = Store()
        insert_program(s, self.CORPUS)
        define_schema(s, "joe")
        calls = self.counted(monkeypatch)
        s.mk_kb_class("big", related_with("big", T.conj(amount_over(100),
                                                        CHECKS["apart"])))
        find_members(s)
        ops = [p.op for p in calls]
        # driving s: each of the 3 orig-of links grounds the amount check at
        # the first step; of the 2 that pass it, only o1 has a recv-of
        # partner, so the apartness check is ground once, at the second
        # step.  Driving r: each of the 2 recv-of links grounds the amount
        # check at the first step, and the second step has no older
        # orig-of member to enumerate.
        assert ops.count(T.PredOp.GT) == 3 + 2
        assert ops.count(T.PredOp.EQ) == 1
        assert len(ops) == 6
        assert member_set(s.kb_class("big")) == {
            T.triple("big", T.term_name("joe"), T.term_name("sue"))}
        calls.clear()
        find_members(s)       # nothing new: no drive window, no evaluation
        assert calls == []


class TestPersistedBinding:
    def test_constant_alias_promoted_later_gains_the_member(self):
        # the binding names c; while c is unknown the binding has no type
        s = build_worked_store()
        marked = T.record(s.tax, [("ref", T.term_name("c"))])
        s.mk_kb_class("marked", T.subset_ty(
            marked, T.record_ty(s.tax, [("ref", PERSON)]), T.TRUE))
        find_members(s)
        assert not s.kb_class("marked").members
        insert_program(s, 'c := {"name"="Cee", "dob"="2001-01-01"};')
        find_members(s)
        assert member_set(s.kb_class("marked")) == {marked}
        assert dict(s.kb_class("marked").members) == oracle_members(s)["marked"]

    def test_tuples_rejected_before_the_alias_is_promoted_are_revisited(self):
        # while c is unknown no tuple's binding has a type; a run then must
        # keep the marks, or joe and sue are never tried again
        s = build_worked_store()
        s.mk_kb_class("tagged", T.subset_ty(
            T.record(s.tax, [("ref", T.term_name("c")), ("who", X)]),
            T.record_ty(s.tax, [("ref", PERSON), ("who", PERSON)]),
            T.exists("y", PERSON, T.equals(X, T.var("y")))))
        find_members(s)
        assert not s.kb_class("tagged").members
        insert_program(s, 'c := {"name"="Cee", "dob"="2001-01-01"};')
        find_members(s)
        engine = dict(s.kb_class("tagged").members)
        assert engine == oracle_members(s)["tagged"]
        assert len(engine) == 3

    def test_a_selecting_binding_waits_for_its_alias(self):
        # the binding selects lim.amount: it is evaluated, so lim need not
        # be typed, but every tuple fails while lim is not stored
        s = build_worked_store()
        find_members(s)
        amount = T.FieldSelection(T.term_name("lim"), mk_concept("amount"))
        s.mk_kb_class("tagged", T.subset_ty(
            T.record(s.tax, [("v", amount), ("who", X)]),
            T.record_ty(s.tax, [("v", T.num_ty), ("who", PERSON)]),
            T.exists("y", PERSON, T.equals(X, T.var("y")))))
        find_members(s)
        assert not s.kb_class("tagged").members
        insert_program(s, 'lim := {"amount"=1.0, "type"=cc()};')
        find_members(s)
        engine = dict(s.kb_class("tagged").members)
        assert engine == oracle_members(s)["tagged"]
        assert len(engine) == 2

    def test_same_as_clears_the_proof_memo(self):
        # raw keeps birth_date; the binding type asks for dob, which only
        # the synonym makes a match
        s = Store()
        insert_program(s, 'a1 := {"name"="A", "birth_date"="1990-01-01"};')
        s.mk_kb_class("raw", T.record_ty(s.tax, [("name", T.str_ty),
                                                  ("birth_date", T.str_ty)]))
        dob = T.record_ty(s.tax, [("name", T.str_ty), ("dob", T.str_ty)])
        s.mk_kb_class("dated", T.subset_ty(X, dob, T.exists(
            "y", T.type_name("raw"), T.equals(X, T.var("y")))))
        find_members(s)
        cls = s.kb_class("dated")
        assert not cls.members
        binding = cls.binding
        assert None in binding.proofs.values()
        s.same_as("dob", "birth_date")
        assert cls.binding is binding and not binding.proofs
        insert_program(s, 'a2 := {"name"="B", "birth_date"="1991-01-01"};')
        find_members(s)
        # a2 has a1's shape; a stale memo would have refused it, and the
        # edit rewound the marks, so a1 is judged again
        assert dict(cls.members) == oracle_members(s)["dated"]
        assert member_set(cls) == {
            T.record(s.tax, [("name", T.string(n)), ("dob", T.string(d))])
            for n, d in (("A", "1990-01-01"), ("B", "1991-01-01"))}

    def test_the_memo_lives_across_runs(self):
        s = build_worked_store()
        find_members(s)
        binding = s.kb_class("fi_related").binding
        proofs = dict(binding.proofs)
        insert_program(s, 't9 := {"amount"=9.0, "type"=cc()};'
                          'o9 := orig-of(joe, t9); r9 := recv-of(sue, t9);')
        find_members(s)
        assert s.kb_class("fi_related").binding is binding
        assert binding.proofs == proofs      # the same shape, proved once

