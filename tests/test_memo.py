"""The classifier's shortcuts against the work they replace.

Subtype proofs and record shapes are memoised per taxonomy and cleared by
its edits, so the memoised prover and record constructor must answer
exactly as the uncached work does under any interleaving of edits and
queries.  Match literals are solved by a matcher compiled for the
pattern's shape (`clause.matcher`), which must give exactly what two-way
unification gives against a ground member.
"""

import operator
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from flutes import terms as T
from flutes import classifier
from flutes.clause import check_test, deref, evaluator, matcher
from flutes.errors import (EvalError, LatticeCycleError, MalformedRecordError,
                           UnboundAliasError)
from flutes.store import Store
from flutes.taxonomy import Concept, Taxonomy, mk_concept, positional
from flutes.typecheck import prove_subtype, prove_subtype_uncached
from flutes.unify import unify

import termgen
from interpreters import eval_term, substitute

VARS = ["x", "y", "z"]


def match(pattern, member, subst):
    """The pattern's matcher, compiled with subst's variables bound, on a
    copy of subst: the extension, or None."""
    s = dict(subst)
    return s if matcher(pattern, subst)(member, s) else None


def ground(t: T.Term) -> T.Term:
    """t with every variable replaced by a string constant."""
    return substitute({v: T.Str(v) for v in T.free_vars(t)}, t)


def subterms(t: T.Term) -> list[T.Term]:
    out, stack = [], [t]
    while stack:
        node = stack.pop()
        out.append(node)
        if isinstance(node, T.Record):
            stack.extend(v for _, v in node.fields)
        elif isinstance(node, T.List):
            stack.extend(node.items)
        elif isinstance(node, T.FieldSelection):
            stack.append(node.base)
    return out


# the root shapes a member is drawn with: the compiled matcher spells out
# records of one and two fields and loops over longer ones
SHAPES = ["record1", "record2", "record3", "record5", "list", "select", "any"]


def shaped_term(rng: random.Random, tax, pool, shape: str, depth: int) -> T.Term:
    """A random term whose root has the shape; its parts hold more
    records, lists and selections while depth lasts."""
    def part():
        if depth > 1 and rng.random() < 0.5:
            return shaped_term(rng, tax, pool, rng.choice(SHAPES), depth - 1)
        return termgen.random_term(rng, tax, pool, depth - 1)

    if shape == "any" or depth == 0:
        return termgen.random_term(rng, tax, pool, depth)
    if shape == "list":
        return T.List(tuple(part() for _ in range(rng.randint(1, 4))))
    if shape == "select":
        return T.FieldSelection(part(), termgen.random_concept(rng, pool))
    labels = termgen.fresh_labels(rng, tax, pool, int(shape[len("record"):]),
                                  allow_positional=True)
    return T.record(tax, [(l, part()) for l in labels])


def punch_holes(rng: random.Random, t: T.Term, pool) -> T.Term:
    """t with some subterms replaced by variables, names drawn from a small
    set so that a name often recurs, and now and then a label changed or a
    last field or list item dropped."""
    if rng.random() < 0.25:
        return T.Var(rng.choice(VARS))

    def relabel(label):
        return termgen.random_concept(rng, pool) if rng.random() < 0.05 else label

    def trim(seq):
        return seq[:-1] if seq and rng.random() < 0.1 else seq

    if isinstance(t, T.Record):
        return T.Record(tuple((relabel(l), punch_holes(rng, v, pool))
                              for l, v in trim(t.fields)))
    if isinstance(t, T.List):
        return T.List(tuple(punch_holes(rng, i, pool) for i in trim(t.items)))
    if isinstance(t, T.FieldSelection):
        return T.FieldSelection(punch_holes(rng, t.base, pool), relabel(t.label))
    return t


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SHAPES))
def test_one_way_match_equals_unify_on_ground_terms(seed, shape):
    rng = random.Random(seed)
    tax, pool = termgen.make_taxonomy(rng)
    member = ground(shaped_term(rng, tax, pool, shape, depth=3))
    if rng.random() < 0.8:
        pattern = punch_holes(rng, member, pool)
    else:
        pattern = shaped_term(rng, tax, pool, shape, depth=3)
    # a ground substitution, its values often parts of the member
    parts = subterms(member)
    subst = {}
    for name in rng.sample(VARS, rng.randint(0, len(VARS))):
        subst[name] = (rng.choice(parts) if rng.random() < 0.7
                       else ground(termgen.random_term(rng, tax, pool, depth=2)))
    before = dict(subst)
    assert match(pattern, member, subst) == unify(pattern, member, subst)
    assert subst == before


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compiled_matcher_fixes_arity_and_labels(n):
    # near misses of an n-field record and an n-item list: one part more,
    # one part fewer, and each label replaced in turn
    labels = [mk_concept(f"f{i}") for i in range(n + 1)]
    values = [T.num_f(i) for i in range(n + 1)]
    fields = list(zip(labels, values))
    record = T.Record(tuple((l, T.Var(f"v{i}")) for i, l in enumerate(labels[:n])))
    members = [T.Record(tuple(fields[:k])) for k in (n, n + 1, n - 1)]
    for i in range(n):
        relabelled = fields[:n]
        relabelled[i] = (mk_concept("other"), values[i])
        members.append(T.Record(tuple(relabelled)))
    items = T.List(tuple(T.Var(f"v{i}") for i in range(n)))
    for pattern, member in ([(record, m) for m in members]
                            + [(items, T.List(tuple(values[:k])))
                               for k in (n, n + 1, n - 1)]):
        assert match(pattern, member, {}) == unify(pattern, member, {})
    assert match(record, members[0], {}) is not None


def test_one_way_match_binds_repeated_variables_consistently():
    pattern = T.triple("orig-of", T.Var("x"), T.Var("x"))
    same = T.triple("orig-of", T.term_name("a"), T.term_name("a"))
    other = T.triple("orig-of", T.term_name("a"), T.term_name("b"))
    assert match(pattern, same, {}) == {"x": T.term_name("a")}
    assert match(pattern, other, {}) is None
    assert match(pattern, same, {"x": T.term_name("b")}) is None


# ---------------------------------------------------------------------------
# compiled check tests


_COMPARE = {T.PredOp.LT: operator.lt, T.PredOp.LE: operator.le,
            T.PredOp.GT: operator.gt, T.PredOp.GE: operator.ge}


def interpreted(p: T.Prop, subst, store) -> bool:
    """The interpretive path a compiled check test replaces: substitute the
    values into the proposition, then evaluate the ground proposition."""
    p = substitute(subst, p)
    if isinstance(p, T.TrueProp):
        return True
    if isinstance(p, T.FalseProp):
        return False

    def value(x):
        return deref(eval_term(x, store), store)
    if isinstance(p, T.BuiltinPred):
        a, b = value(p.args[0]), value(p.args[1])
        if p.op is T.PredOp.EQ:
            return a == b
        if type(a) is not type(b) or type(a) not in (T.Num, T.Str):
            raise EvalError("comparison needs two numbers or two strings")
        return _COMPARE[p.op](a.value, b.value)
    if isinstance(p, T.InSequence):
        item, missing = value(p.item), None
        for i in p.items:
            try:
                if item == value(i):
                    return True
            except UnboundAliasError as exc:
                missing = exc
        if missing is not None:
            raise missing
        return False
    raise EvalError(f"cannot evaluate proposition {type(p).__name__}")


def outcome(run):
    """What a call returns, or the type and message of what it raises."""
    try:
        return ("returns", run())
    except Exception as exc:
        return ("raises", type(exc), str(exc))


def check_store() -> Store:
    s = Store()
    s.abox_insert("r1", T.record(s.tax, [("amount", T.num_f(500)),
                                         ("name", T.string("Joe"))]))
    s.abox_insert("r2", T.record(s.tax, [("amount", T.num_f(50)),
                                         ("type", T.atom("check"))]))
    s.abox_insert("o1", T.triple("orig-of", T.term_name("r1"),
                                 T.term_name("r2")))
    s.abox_insert("ref", T.term_name("r1"))     # an alias naming an alias
    s.abox_insert("five", T.num_f(5))
    return s


CHECK_STORE = check_store()
A, G, X = T.term_name, T.term_name("ghost"), T.Var("x")   # ghost is not stored
AMOUNT, DOB = mk_concept("amount"), mk_concept("dob")

check_leaves = st.one_of(
    st.sampled_from([T.num_f(5), T.num_f(50), T.num_f(500), T.string("Joe"),
                     T.string("50"), T.atom("check"), T.Bottom(AMOUNT)]),
    st.sampled_from(["r1", "r2", "o1", "ref", "five", "ghost"]).map(A),
    st.sampled_from(VARS).map(T.Var))
check_labels = st.sampled_from([AMOUNT, DOB, mk_concept("name"),
                                mk_concept("orig-of"), positional(0),
                                positional(1), positional(2)])


def terms_over(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(T.FieldSelection, inner, check_labels),
        st.builds(lambda v: T.Record(((AMOUNT, v),)), inner),
        st.builds(lambda v, w: T.Record(((AMOUNT, v), (DOB, w))), inner, inner),
        st.lists(inner, max_size=3).map(lambda xs: T.List(tuple(xs)))),
        max_leaves=4)


check_terms = terms_over(check_leaves)
checks = st.one_of(
    st.builds(lambda op, a, b: T.BuiltinPred(op, (a, b)),
              st.sampled_from(list(T.PredOp)), check_terms, check_terms),
    st.builds(lambda x, xs: T.InSequence(x, tuple(xs)),
              check_terms, st.lists(check_terms, max_size=3)),
    st.sampled_from([T.TRUE, T.FALSE, T.And(T.TRUE, T.TRUE)]))
# a value may hold a selection or a variable: the path substitutes it as
# it is and evaluates the result
check_substs = st.dictionaries(st.sampled_from(VARS), check_terms, max_size=3)


@settings(max_examples=500, deadline=None)
@given(checks, check_substs)
# an unbound alias
@example(T.BuiltinPred(T.PredOp.GT, (T.FieldSelection(X, AMOUNT), T.num_f(1))),
         {"x": G})
# a selection from a non-record
@example(T.BuiltinPred(T.PredOp.EQ, (T.FieldSelection(X, AMOUNT), T.num_f(5))),
         {"x": A("five")})
# a missing field
@example(T.BuiltinPred(T.PredOp.LT, (T.FieldSelection(A("ref"), DOB), X)),
         {"x": T.string("Joe")})
# a number compared with a string
@example(T.BuiltinPred(T.PredOp.GE, (T.FieldSelection(X, AMOUNT), T.string("50"))),
         {"x": A("r2")})
# inseq with an unstored item: raised unless another item matches
@example(T.InSequence(X, (G, T.num_f(50))), {"x": T.num_f(50)})
@example(T.InSequence(X, (G, T.num_f(50))), {"x": T.num_f(5)})
def test_compiled_check_equals_substitute_then_evaluate(p, subst):
    store = CHECK_STORE
    assert (outcome(lambda: check_test(p)(subst, store))
            == outcome(lambda: interpreted(p, subst, store)))


# the evaluator reads only `lookup` and `tax`, so a stand-in store can hold
# the alias cycle a Store refuses
CYCLE = {"c1": A("c2"), "c2": A("c1")}
CYCLE_STORE = SimpleNamespace(
    tax=CHECK_STORE.tax, lookup=lambda n: CYCLE.get(n) or CHECK_STORE.lookup(n))
eval_terms = terms_over(st.one_of(check_leaves, st.just(A("c1"))))


@settings(max_examples=300, deadline=None)
@given(eval_terms, st.dictionaries(st.sampled_from(VARS), eval_terms, max_size=3))
@example(T.FieldSelection(X, AMOUNT), {})                        # unbound variable
@example(T.FieldSelection(X, AMOUNT), {"x": A("five")})          # non-record
@example(T.FieldSelection(A("ref"), DOB), {})                    # no matching field
@example(T.Record(((AMOUNT, T.FieldSelection(X, DOB)),)), {"x": G})  # unbound alias
@example(T.FieldSelection(X, AMOUNT), {"x": A("c1")})            # alias cycle
# a value that selects is evaluated in turn
@example(T.List((T.FieldSelection(A("r2"), AMOUNT), X)),
         {"x": T.FieldSelection(A("ref"), AMOUNT)})
def test_evaluator_equals_substitute_then_evaluate(x, subst):
    store = CYCLE_STORE
    assert (outcome(lambda: evaluator(x)(subst, store))
            == outcome(lambda: eval_term(substitute(subst, x), store)))


def test_ground_evaluation_is_the_check_test_under_no_substitution():
    store = CHECK_STORE
    p = T.BuiltinPred(T.PredOp.GT, (T.FieldSelection(A("ref"), AMOUNT),
                                    T.num_f(100)))
    assert classifier.eval_ground_prop(p, store) is True
    unbound = T.BuiltinPred(T.PredOp.EQ, (X, T.num_f(1)))
    assert outcome(lambda: classifier.eval_ground_prop(unbound, store)) == (
        "raises", EvalError, "unbound variable 'x'")


# ---------------------------------------------------------------------------
# the proof memo


LABELS = [mk_concept(f"m{i}") for i in range(6)]


def type_pool(seed: int) -> list[T.Type]:
    """Static types over LABELS and some narrowings of them, built against
    an edgeless taxonomy so that every record type is well formed."""
    rng = random.Random(seed)
    plain = Taxonomy()
    pool = []
    for _ in range(4):
        ty = termgen.random_static_type(rng, plain, LABELS, 2)
        pool += [ty, termgen.narrow(rng, plain, LABELS, ty)]
    pool.append(T.record_ty(plain, [(LABELS[0], T.num_ty)]))
    pool.append(T.record_ty(plain, [(LABELS[1], T.num_ty), (LABELS[2], T.str_ty)]))
    return pool


label = st.sampled_from(LABELS)
memo_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["same_as", "is_a", "is_a"]), label, label),
    st.tuples(st.just("prove"), st.integers(0, 9), st.integers(0, 9)),
), max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**16), memo_ops)
def test_memoised_prover_equals_uncached_after_every_step(seed, ops):
    types = type_pool(seed)
    tax = Taxonomy()
    for op, a, b in ops:
        if op == "same_as":
            tax.same_as(a, b)
        elif op == "is_a":
            try:
                tax.add_is_a(a, b)
            except LatticeCycleError:
                pass
        else:
            sub, sup = types[a % len(types)], types[b % len(types)]
            assert prove_subtype(sub, sup, tax) == prove_subtype_uncached(sub, sup, tax)
        # every pair after every step, so a stale memo entry shows
        for sub in types:
            for sup in types:
                assert (prove_subtype(sub, sup, tax)
                        == prove_subtype_uncached(sub, sup, tax)), (sub, sup)


@pytest.mark.parametrize("edit", ["same_as", "add_is_a"])
def test_taxonomy_edit_clears_memoised_failure(edit):
    tax = Taxonomy()
    sub = T.record_ty(tax, [("dob", T.str_ty)])
    sup = T.record_ty(tax, [("birth_date", T.str_ty)])
    assert prove_subtype(sub, sup, tax) is None
    assert (sub, sup) in tax.proofs            # failures are memoised too
    getattr(tax, edit)(mk_concept("dob"), mk_concept("birth_date"))
    assert not tax.proofs
    assert prove_subtype(sub, sup, tax) is not None


def test_store_interns_inferred_and_class_types():
    s = Store()
    s.abox_insert("a", T.record(s.tax, [("name", T.string("A"))]))
    s.abox_insert("b", T.record(s.tax, [("name", T.string("B"))]))
    classifier.promote_untyped(s)
    s.mk_kb_class("named", T.record_ty(s.tax, [("name", T.str_ty)]))
    assert s.type_of("a") is s.type_of("b")
    assert s.kb_class("named").ty is s.type_of("a")
    proof = prove_subtype(s.type_of("a"), s.kb_class("named").ty, s.tax)
    assert prove_subtype(s.type_of("b"), s.kb_class("named").ty, s.tax) is proof
    s.same_as("name", "label")                 # an edit forgets the proofs
    assert not s.tax.proofs
    # and the inferred types, which are inferred again as the same instance
    assert s.type_of("a") is T.record_ty(s.tax, [("name", T.str_ty)])
    assert s.kb_class("named").ty is s.type_of("b")


# ---------------------------------------------------------------------------
# the record-shape memo


def record_uncached(tax, fields):
    """terms.record without the memo: intern, refuse a mutual pair, sort."""
    pairs = [(l if isinstance(l, Concept) else mk_concept(l), v)
             for l, v in fields]
    if tax.mutual_pair([l for l, _ in pairs]) is not None:
        return None
    return T.Record(T.sort_fields(pairs))


shape_label = st.sampled_from([c.name for c in LABELS] + LABELS[:2]
                              + [positional(0), positional(1)])
shape_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["same_as", "is_a"]), label, label),
    st.tuples(st.just("record"), st.lists(shape_label, max_size=5)),
), max_size=14)


@settings(max_examples=200, deadline=None)
@given(shape_ops)
def test_memoised_record_equals_uncached_after_every_step(ops):
    tax = Taxonomy()
    seen = []                   # every shape built so far, asked again
    for op, *args in ops:
        if op == "same_as":
            tax.same_as(*args)
        elif op == "is_a":
            try:
                tax.add_is_a(*args)
            except LatticeCycleError:
                pass
        else:
            seen.append(args[0])
        for labels in seen:
            fields = [(l, T.num_f(i)) for i, l in enumerate(labels)]
            want = record_uncached(tax, fields)
            try:
                got = T.record(tax, fields)
            except MalformedRecordError:
                got = None
            assert got == want, labels
