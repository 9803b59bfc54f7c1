"""The classifier's shortcuts against the work they replace.

Subtype proofs and record shapes are memoised per taxonomy and cleared by
its edits, so the memoised prover and record constructor must answer
exactly as the uncached work does under any interleaving of edits and
queries.  Match literals are solved by matching
the pattern one way against a ground member, which must give exactly what
two-way unification gives there.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from flutes import terms as T
from flutes import classifier
from flutes.errors import LatticeCycleError, MalformedRecordError
from flutes.store import Store
from flutes.taxonomy import Concept, Taxonomy, mk_concept, positional
from flutes.typecheck import prove_subtype, prove_subtype_uncached
from flutes.unify import unify

import termgen

VARS = ["x", "y", "z"]


def match(pattern, member, subst):
    """classifier.match on a copy of subst: the extension, or None."""
    s = dict(subst)
    return s if classifier.match(pattern, member, s) else None


def ground(t: T.Term) -> T.Term:
    """t with every variable replaced by a string constant."""
    return T.substitute({v: T.Str(v) for v in T.free_vars(t)}, t)


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
@given(st.integers(0, 2**32 - 1))
def test_one_way_match_equals_unify_on_ground_terms(seed):
    rng = random.Random(seed)
    tax, pool = termgen.make_taxonomy(rng)
    member = ground(termgen.random_term(rng, tax, pool, depth=3))
    if rng.random() < 0.8:
        pattern = punch_holes(rng, member, pool)
    else:
        pattern = termgen.random_term(rng, tax, pool, depth=3)
    # a ground substitution, its values often parts of the member
    parts = subterms(member)
    subst = {}
    for name in rng.sample(VARS, rng.randint(0, len(VARS))):
        subst[name] = (rng.choice(parts) if rng.random() < 0.7
                       else ground(termgen.random_term(rng, tax, pool, depth=2)))
    before = dict(subst)
    assert match(pattern, member, subst) == unify(pattern, member, subst)
    assert subst == before


def test_one_way_match_binds_repeated_variables_consistently():
    pattern = T.triple("orig-of", T.Var("x"), T.Var("x"))
    same = T.triple("orig-of", T.term_name("a"), T.term_name("a"))
    other = T.triple("orig-of", T.term_name("a"), T.term_name("b"))
    assert match(pattern, same, {}) == {"x": T.term_name("a")}
    assert match(pattern, other, {}) is None
    assert match(pattern, same, {"x": T.term_name("b")}) is None


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
    assert s.resolve_class_type("named") is s.type_of("a")
    proof = prove_subtype(s.type_of("a"), s.resolve_class_type("named"), s.tax)
    assert prove_subtype(s.type_of("b"), s.resolve_class_type("named"), s.tax) is proof
    s.same_as("name", "label")                 # an edit forgets both tables
    assert not s.tax.proofs
    assert s.type_of("a") == T.record_ty(s.tax, [("name", T.str_ty)])


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
