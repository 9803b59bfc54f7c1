import itertools
import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from flutes.errors import (AliasCycleError, CoercionDomainError,
                           MalformedRecordError, TypeCheckError)
from flutes.taxonomy import Taxonomy, mk_concept, positional
from flutes import terms as T
from flutes.typecheck import (
    Leaf, ListNode, RecordNode, apply_coercion,
    infer_static_type, is_identity_shaped, prove_subtype,
    prove_subtype_uncached, resolve_type,
)

import termgen


@pytest.fixture
def tax():
    t = Taxonomy()
    t.same_as(mk_concept("dob"), mk_concept("birth_date"))
    return t


def joe(tax):
    return T.record(tax, [("name", T.string("Joe")),
                          ("birth_date", T.string("1984-06-27"))])


def person_ty(tax):
    return T.record_ty(tax, [("name", T.str_ty), ("dob", T.str_ty)])


class TestInference:
    def test_leaves(self, tax):
        assert infer_static_type(T.string("x"), tax) == T.str_ty
        assert infer_static_type(T.num_f(5), tax) == T.num_ty
        assert infer_static_type(T.atom("check"), tax) == T.enum_ty(["check"])

    def test_record(self, tax):
        ty = infer_static_type(joe(tax), tax)
        assert ty == T.record_ty(tax, [("name", T.str_ty),
                                       ("birth_date", T.str_ty)])
        assert [c.name for c, _ in ty.fields] == ["birth_date", "name"]

    def test_lists(self, tax):
        assert infer_static_type(T.List((T.num_f(1), T.num_f(2))), tax) \
            == T.ListTy(T.num_ty)
        # no element type to learn from, and no common element type
        assert infer_static_type(T.List(()), tax) is None
        mixed = T.List((T.num_f(1), T.string("x")))
        assert infer_static_type(mixed, tax) is None

    def test_untypeable_leaves(self, tax):
        assert infer_static_type(T.Var("x"), tax) is None
        assert infer_static_type(T.Bottom(mk_concept("owner")), tax) is None
        assert infer_static_type(T.term_name("ghost"), tax) is None
        rec = T.record(tax, [("a", T.Var("x"))])
        assert infer_static_type(rec, tax) is None

    def test_alias_resolution(self, tax):
        resolve = {"joe": T.str_ty}.get
        assert infer_static_type(T.term_name("joe"), tax, resolve) == T.str_ty

    def test_field_selection(self, tax):
        sel = T.FieldSelection(joe(tax), mk_concept("name"))
        assert infer_static_type(sel, tax) == T.str_ty
        missing = T.FieldSelection(joe(tax), mk_concept("absent"))
        assert infer_static_type(missing, tax) is None

    def test_positional_selection_unwraps_pred_app(self, tax):
        o1 = T.triple("orig-of", T.string("a"), T.num_f(1))
        first, second = (T.FieldSelection(o1, positional(i)) for i in (0, 1))
        assert infer_static_type(first, tax) == T.str_ty
        assert infer_static_type(second, tax) == T.num_ty
        assert infer_static_type(T.FieldSelection(o1, positional(2)), tax) is None

    def test_selection_through_synonym(self, tax):
        sel = T.FieldSelection(joe(tax), mk_concept("dob"))  # stored as birth_date
        assert infer_static_type(sel, tax) == T.str_ty
        tyd = T.select_field(person_ty(tax), mk_concept("birth_date"), tax)
        assert tyd == T.str_ty  # synonym matches both ways

    def test_selection_respects_hyponym_direction(self, tax):
        tax.add_is_a(mk_concept("check"), mk_concept("payment"))
        rec_ty = T.record_ty(tax, [("check", T.num_ty)])
        assert T.select_field(rec_ty, mk_concept("payment"), tax) == T.num_ty
        general = T.record_ty(tax, [("payment", T.num_ty)])
        assert T.select_field(general, mk_concept("check"), tax) is None


class TestProve:
    def test_worked_subsumption(self, tax):
        sub = infer_static_type(joe(tax), tax)
        proof = prove_subtype(sub, person_ty(tax), tax)
        assert isinstance(proof, RecordNode)
        pairing = {sup.name: subl.name for sup, subl, _ in proof.pairs}
        assert pairing == {"dob": "birth_date", "name": "name"}

    def test_reflexivity_on_random_types(self):
        rng = random.Random(11)
        tax2, pool = termgen.make_taxonomy(rng)
        for _ in range(100):
            ty = termgen.random_static_type(rng, tax2, pool, 3)
            proof = prove_subtype(ty, ty, tax2)
            assert proof is not None
            assert is_identity_shaped(proof)

    def test_width_subtyping_drops(self, tax):
        wide = T.record_ty(tax, [("name", T.str_ty), ("dob", T.str_ty),
                                 ("extra", T.num_ty)])
        proof = prove_subtype(wide, person_ty(tax), tax)
        assert proof.dropped == (mk_concept("extra"),)

    def test_missing_field_is_no_proof(self, tax):
        thin = T.record_ty(tax, [("name", T.str_ty)])
        assert prove_subtype(thin, person_ty(tax), tax) is None

    def test_enum_inclusion(self, tax):
        small, big = T.enum_ty(["check"]), T.enum_ty(["check", "cc"])
        assert prove_subtype(small, big, tax) == Leaf(T.Atom)
        assert prove_subtype(big, small, tax) is None
        tax.same_as(mk_concept("check"), mk_concept("cheque"))
        assert prove_subtype(T.enum_ty(["cheque"]), big, tax) is not None

    def test_void_is_bottom(self, tax):
        assert prove_subtype(T.void_ty, person_ty(tax), tax) is not None
        assert prove_subtype(T.num_ty, T.void_ty, tax) is None

    def test_list_covariance(self, tax):
        sub = T.ListTy(T.enum_ty(["check"]))
        sup = T.ListTy(T.enum_ty(["check", "cc"]))
        assert prove_subtype(sub, sup, tax) is not None
        assert prove_subtype(sup, sub, tax) is None

    def test_positional_labels_pair_by_index_only(self, tax):
        sub = T.triple_ty("orig-of", T.str_ty, T.num_ty)
        assert prove_subtype(sub, sub, tax) is not None
        flipped = T.triple_ty("orig-of", T.num_ty, T.str_ty)
        assert prove_subtype(sub, flipped, tax) is None

    def test_kind_mismatches(self, tax):
        assert prove_subtype(T.num_ty, T.str_ty, tax) is None
        assert prove_subtype(T.enum_ty(["a"]), T.str_ty, tax) is None

    def test_rejects_non_static_types(self, tax):
        with pytest.raises(TypeCheckError):
            prove_subtype(T.type_name("person"), T.num_ty, tax)

    def test_determinism(self, tax):
        sub = infer_static_type(joe(tax), tax)
        proofs = {prove_subtype(sub, person_ty(tax), tax) for _ in range(10)}
        assert len(proofs) == 1

    def test_transitivity_on_random_chains(self):
        rng = random.Random(12)
        tax2, pool = termgen.make_taxonomy(rng)
        checked = 0
        for _ in range(200):
            c = termgen.random_record_type(rng, tax2, pool, 2)
            b = termgen.narrow(rng, tax2, pool, c)
            a = termgen.narrow(rng, tax2, pool, b)
            if (prove_subtype(a, b, tax2) is not None
                    and prove_subtype(b, c, tax2) is not None):
                checked += 1
                assert prove_subtype(a, c, tax2) is not None
        assert checked > 50


# field pairing against an exhaustive enumeration of injective pairings
_PAIR_LABELS = ["a", "b", "c", "d", "e", "f"]


def _pair_fields(labels, min_size=0):
    return st.dictionaries(
        st.sampled_from(labels),
        st.sampled_from([T.str_ty, T.str_ty, T.str_ty, T.num_ty, T.void_ty]),
        min_size=min_size, max_size=4)


# each possible is-a edge from a label of the second half to one of the
# first, drawn as a coin, and a few synonyms: a record of the lower labels
# then often has two ways into a record of the upper ones, only one of
# which first-fit tries
_pair_edges = st.tuples(
    st.lists(st.booleans(), min_size=9, max_size=9).map(lambda coins: [
        ("add_is_a", x, y) for (x, y), coin in zip(
            itertools.product(_PAIR_LABELS[3:], _PAIR_LABELS[:3]), coins)
        if coin]),
    st.lists(st.tuples(st.just("same_as"), st.sampled_from(_PAIR_LABELS),
                       st.sampled_from(_PAIR_LABELS)), max_size=2),
).map(lambda drawn: drawn[0] + drawn[1])


# a subtype and a supertype over any labels, or the subtype over the lower
# labels and the supertype over the upper ones, so that every pair of
# fields is paired through the drawn edges
_pair_records = st.one_of(
    st.tuples(_pair_fields(_PAIR_LABELS), _pair_fields(_PAIR_LABELS)),
    st.tuples(_pair_fields(_PAIR_LABELS[3:], 2),
              _pair_fields(_PAIR_LABELS[:3], 2)))


@settings(max_examples=400, deadline=None)
@given(_pair_edges, _pair_records)
@example([("add_is_a", "c", "a"), ("add_is_a", "b", "a")],   # edit case (a)
         ({"b": T.str_ty, "c": T.str_ty}, {"a": T.str_ty, "b": T.str_ty}))
def test_pairing_is_the_first_complete_injective_pairing(edges, records):
    sub, sup = records
    tax = Taxonomy()
    for edit, a, b in edges:        # the is-a edges all point upward
        getattr(tax, edit)(mk_concept(a), mk_concept(b))
    try:
        sub_ty = T.record_ty(tax, sub.items())
        sup_ty = T.record_ty(tax, sup.items())
    except MalformedRecordError:       # two labels the edges made mutual
        assume(False)

    def fits(i, j):     # the atomic field types prove when equal or void
        sub_label, sub_fty = sub_ty.fields[i]
        sup_label, sup_fty = sup_ty.fields[j]
        return (tax.label_match(sub_label, sup_label)
                and sub_fty in (sup_fty, T.void_ty))

    # permutations come in lexicographic order: supertype fields in label
    # order, each taking the lowest-indexed subtype field it can
    first = next((p for p in itertools.permutations(range(len(sub_ty.fields)),
                                                     len(sup_ty.fields))
                  if all(fits(i, j) for j, i in enumerate(p))), None)
    proof = prove_subtype_uncached(sub_ty, sup_ty, tax)
    if first is None:
        assert proof is None
        return
    assert [(s, b) for s, b, _ in proof.pairs] == [
        (sup_ty.fields[j][0], sub_ty.fields[i][0]) for j, i in enumerate(first)]
    assert proof.dropped == tuple(l for i, (l, _) in enumerate(sub_ty.fields)
                                  if i not in first)


class TestCoercion:
    def test_worked_example(self, tax):
        sub = infer_static_type(joe(tax), tax)
        proof = prove_subtype(sub, person_ty(tax), tax)
        coerced = apply_coercion(proof, joe(tax))
        assert coerced == T.record(tax, [("dob", T.string("1984-06-27")),
                                         ("name", T.string("Joe"))])
        assert [c.name for c, _ in coerced.fields] == ["dob", "name"]

    def test_identity_proof_is_identity(self, tax):
        t = joe(tax)
        sub = infer_static_type(t, tax)
        proof = prove_subtype(sub, sub, tax)
        assert apply_coercion(proof, t) == t

    def test_extra_fields_dropped(self, tax):
        t = T.record(tax, [("name", T.string("Joe")),
                           ("dob", T.string("1984-06-27")),
                           ("shoe_size", T.num_f(11))])
        proof = prove_subtype(infer_static_type(t, tax), person_ty(tax), tax)
        coerced = apply_coercion(proof, t)
        assert infer_static_type(coerced, tax) == person_ty(tax)

    def test_aliases_and_bottoms_pass_through(self, tax):
        proof = prove_subtype(person_ty(tax), person_ty(tax), tax)
        assert apply_coercion(proof, T.term_name("joe")) == T.term_name("joe")
        unknown = T.Bottom(mk_concept("p"))
        assert apply_coercion(proof, unknown) == unknown

    def test_domain_errors(self, tax):
        proof = prove_subtype(person_ty(tax), person_ty(tax), tax)
        with pytest.raises(CoercionDomainError):
            apply_coercion(proof, T.num_f(1))
        with pytest.raises(CoercionDomainError):
            apply_coercion(proof, T.record(tax, [("name", T.string("x"))]))

    def test_soundness_on_random_pairs(self):
        rng = random.Random(13)
        tax2, pool = termgen.make_taxonomy(rng)
        proved = 0
        for _ in range(200):
            sup = termgen.random_record_type(rng, tax2, pool, 3)
            sub = termgen.narrow(rng, tax2, pool, sup)
            proof = prove_subtype(sub, sup, tax2)
            if proof is None:
                continue
            proved += 1
            t = termgen.inhabit(rng, tax2, sub)
            t_ty = infer_static_type(t, tax2)
            inhab = prove_subtype(t_ty, sub, tax2)  # enum fields may narrow
            assert inhab is not None and is_identity_shaped(inhab)
            back = infer_static_type(apply_coercion(proof, t), tax2)
            reproof = prove_subtype(back, sup, tax2)
            assert reproof is not None and is_identity_shaped(reproof)
        assert proved > 100


def rebuild_coercion(proof, t):
    """The coercion as a rebuild of every record and list it passes."""
    if isinstance(t, (T.TermAlias, T.Bottom)):
        return t
    if isinstance(proof, RecordNode):
        by_label = dict(t.fields)
        return T.Record(T.sort_fields(
            (sup, rebuild_coercion(child, by_label[sub]))
            for sup, sub, child in proof.pairs))
    if isinstance(proof, ListNode):
        return T.List(tuple(rebuild_coercion(proof.child, i) for i in t.items))
    return t


def renames_or_drops(proof, t) -> bool:
    """Whether the proof renames or drops a field anywhere the coercion
    walks over t (it stops at aliases and bottoms)."""
    if isinstance(t, (T.TermAlias, T.Bottom)):
        return False
    if isinstance(proof, RecordNode):
        by_label = dict(t.fields)
        return bool(proof.dropped) or any(
            sup != sub or renames_or_drops(child, by_label[sub])
            for sup, sub, child in proof.pairs)
    if isinstance(proof, ListNode):
        return any(renames_or_drops(proof.child, i) for i in t.items)
    return False


def stub_parts(rng, t):
    """t with some records, lists and leaves replaced by aliases or bottoms,
    which conform to any type."""
    roll = rng.random()
    if roll < 0.1:
        return T.term_name("a")
    if roll < 0.15:
        return T.Bottom(mk_concept("b"))
    if isinstance(t, T.Record):
        return T.Record(tuple((l, stub_parts(rng, v)) for l, v in t.fields))
    if isinstance(t, T.List):
        return T.List(tuple(stub_parts(rng, i) for i in t.items))
    return t


class TestSharedCoercion:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_equals_rebuild_and_shares_unchanged_terms(self, seed):
        rng = random.Random(seed)
        tax, pool = termgen.make_taxonomy(rng)
        sup = termgen.random_static_type(rng, tax, pool, 3)
        sub = sup if rng.random() < 0.3 else termgen.narrow(rng, tax, pool, sup)
        proof = prove_subtype(sub, sup, tax)
        assume(proof is not None)
        t = stub_parts(rng, termgen.inhabit(rng, tax, sub))
        coerced = apply_coercion(proof, t)
        assert coerced == rebuild_coercion(proof, t)
        assert (coerced is t) == (not renames_or_drops(proof, t))


class TestResolveAndCheck:
    def test_resolve_expands_aliases_deeply(self, tax):
        defs = {"person": person_ty(tax),
                "orig_of": T.triple_ty("orig-of", T.type_name("person"),
                                       T.num_ty)}
        resolved = resolve_type(T.type_name("orig_of"), defs.get)
        inner = resolved.fields[0][1]
        assert inner.fields[0][1] == person_ty(tax)

    def test_resolve_through_subset_type(self, tax):
        fi = T.subset_ty(T.Var("x"), T.type_name("person"), T.TRUE)
        defs = {"person": person_ty(tax), "fi": fi}
        assert resolve_type(T.type_name("fi"), defs.get) == person_ty(tax)

    def test_resolve_errors(self, tax):
        with pytest.raises(TypeCheckError):
            resolve_type(T.type_name("ghost"), {}.get)
        loop = {"a": T.type_name("b"), "b": T.type_name("a")}
        with pytest.raises(AliasCycleError):
            resolve_type(T.type_name("a"), loop.get)
