import copy
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from flutes.errors import LatticeCycleError, MalformedRecordError, TaxonomyError
from flutes.sexp import parse_sexp
from flutes.store import Store
from flutes.syntax import parse_program
from flutes.taxonomy import Concept, Taxonomy, compare, mk_concept, positional
from flutes import terms as T


def names(*xs):
    return [mk_concept(x) for x in xs]


class TestConcept:
    def test_constructors_validate(self):
        with pytest.raises(TaxonomyError):
            mk_concept("")
        with pytest.raises(TaxonomyError):
            positional(-1)

    def test_interning_by_value(self):
        assert mk_concept("dob") == mk_concept("dob")
        assert positional(2) == positional(2)
        assert mk_concept("a") != positional(0)

    def test_constructors_share_one_concept(self):
        assert mk_concept("dob") is mk_concept("dob")
        assert positional(3) is positional(3)

    def test_direct_construction_equals_interned(self):
        built = Concept(name="dob")
        assert built == mk_concept("dob") and mk_concept("dob") == built
        assert hash(built) == hash(mk_concept("dob"))
        assert Concept(position=1) == positional(1)
        assert Concept(name="x") != Concept(position=0)

    def test_order_positional_first_then_lexicographic(self):
        p0, p1 = positional(0), positional(1)
        a, b = names("amount", "type")
        assert compare(p0, p1) < 0
        assert compare(p1, a) < 0
        assert compare(a, b) < 0
        assert compare(b, a) > 0
        assert compare(a, a) == 0

    @given(st.lists(st.one_of(
        st.integers(0, 20).map(positional),
        st.text("abcdef", min_size=1, max_size=4).map(mk_concept)),
        min_size=2, max_size=6))
    def test_order_is_total_and_antisymmetric(self, cs):
        for x in cs:
            for y in cs:
                cxy, cyx = compare(x, y), compare(y, x)
                assert cxy == -cyx
                assert (cxy == 0) == (x == y)


class TestIdentity:
    """Identity is the only equality of labels: each path that builds a
    concept returns the one interned instance.  Every path below meets its
    label first, so it is the one that interns it."""

    def test_no_value_equality(self):
        assert Concept.__eq__ is object.__eq__
        assert Concept.__hash__ is object.__hash__

    def test_constructors_return_the_interned_concept(self):
        built = Concept(name="ident_direct")
        assert mk_concept("ident_direct") is built is Concept(name="ident_direct")
        assert mk_concept(built) is built
        assert mk_concept("ident_mk") is Concept(name="ident_mk")
        assert Concept(position=901) is positional(901) is Concept(position=901)
        assert positional(902) is Concept(position=902)
        record = T.pred_app("ident_copy", [T.num_f(1)])
        for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert copied == record
            (head, inner), = copied.fields
            assert head is mk_concept("ident_copy")
            assert inner.fields[0][0] is positional(0)

    def test_readers_return_the_interned_concept(self, tmp_path):
        (label, _), = parse_sexp('(record ((ident_sexp (str "x"))))').fields
        assert label is mk_concept("ident_sexp")
        (decl,) = parse_program('x := {"ident_parse" = 1.0};')
        (label, _), = decl.body.fields
        assert label is mk_concept("ident_parse")
        path = str(tmp_path / "kb")
        with Store(path) as store:
            store.same_as("ident_a", "ident_b")
            store.abox_insert("t", T.record(store.tax, [("ident_store", T.num_f(1))]))
        with Store(path) as store:
            (label, _), = store.untyped["t"].fields
            assert label is mk_concept("ident_store")
            assert store.tax.find(mk_concept("ident_b")) is mk_concept("ident_a")


class TestEquivalence:
    def test_same_as_merges_transitively(self):
        tax = Taxonomy()
        a, b, c = names("a", "b", "c")
        tax.same_as(a, b)
        tax.same_as(b, c)
        assert tax.equiv(a, c)
        assert tax.find(a) == tax.find(b) == tax.find(c)

    def test_canonical_is_least_member(self):
        tax = Taxonomy()
        dob, bd = names("dob", "birth_date")
        tax.same_as(dob, bd)
        assert tax.find(dob) == bd
        assert tax.find(bd) == bd

    def test_distinct_without_assertion(self):
        tax = Taxonomy()
        a, b = names("a", "b")
        assert not tax.equiv(a, b)
        assert tax.find(a) == a


class TestIsA:
    def test_hyponym_matches_hypernym(self):
        tax = Taxonomy()
        check, payment = names("check", "payment")
        tax.add_is_a(check, payment)
        assert tax.label_match(check, payment)
        assert not tax.label_match(payment, check)

    def test_transitive_chain(self):
        tax = Taxonomy()
        a, b, c = names("a", "b", "c")
        tax.add_is_a(a, b)
        tax.add_is_a(b, c)
        assert tax.label_leq(a, c)
        assert not tax.label_leq(c, a)

    def test_steps_through_synonyms(self):
        tax = Taxonomy()
        dob, bd, attr = names("dob", "birth_date", "attribute")
        tax.same_as(dob, bd)
        tax.add_is_a(dob, attr)
        assert tax.label_leq(bd, attr)

    def test_direct_cycle_rejected(self):
        tax = Taxonomy()
        a, b = names("a", "b")
        tax.add_is_a(a, b)
        with pytest.raises(LatticeCycleError):
            tax.add_is_a(b, a)

    def test_cycle_through_synonym_rejected(self):
        tax = Taxonomy()
        a, b, c = names("a", "b", "c")
        tax.add_is_a(a, b)
        tax.same_as(b, c)
        with pytest.raises(LatticeCycleError):
            tax.add_is_a(c, a)

    def test_self_edge_rejected(self):
        tax = Taxonomy()
        (a,) = names("a")
        with pytest.raises(LatticeCycleError):
            tax.add_is_a(a, a)


class TestLabelMatch:
    def test_identity(self):
        tax = Taxonomy()
        (a,) = names("a")
        assert tax.label_match(a, a)
        assert tax.label_match(positional(1), positional(1))

    def test_synonyms_match_both_ways(self):
        tax = Taxonomy()
        dob, bd = names("dob", "birth_date")
        tax.same_as(dob, bd)
        assert tax.label_match(dob, bd)
        assert tax.label_match(bd, dob)

    def test_positionals_never_cross_match(self):
        tax = Taxonomy()
        (a,) = names("a")
        assert not tax.label_match(positional(0), positional(1))
        assert not tax.label_match(positional(0), a)
        assert not tax.label_match(a, positional(0))


class TestLabelMemo:
    def test_same_as_after_a_query_is_seen(self):
        tax = Taxonomy()
        dob, bd = names("dob", "birth_date")
        assert not tax.label_match(dob, bd)
        tax.same_as(dob, bd)
        assert tax.label_match(dob, bd)
        assert tax.label_match(bd, dob)

    def test_is_a_after_a_query_is_seen(self):
        tax = Taxonomy()
        check, payment, asset = names("check", "payment", "asset")
        assert not tax.label_match(check, payment)
        tax.add_is_a(check, payment)
        assert tax.label_match(check, payment)
        assert not tax.label_match(check, asset)
        tax.add_is_a(payment, asset)
        assert tax.label_match(check, asset)

    def test_rejected_edge_changes_nothing(self):
        tax = Taxonomy()
        a, b = names("a", "b")
        tax.add_is_a(a, b)
        assert not tax.label_match(b, a)
        with pytest.raises(LatticeCycleError):
            tax.add_is_a(b, a)
        assert not tax.label_match(b, a)
        assert tax.label_match(a, b)


# -- model-based check of the memo against an uncached reference ---------------

POOL = [mk_concept(n) for n in ("a", "b", "c")] + [positional(0)]
NAMED = POOL[:-1]


class Reference:
    """Label relations recomputed from the raw edges on every query."""

    def __init__(self):
        self.synonyms: list[tuple[Concept, Concept]] = []
        self.isa: list[tuple[Concept, Concept]] = []

    def group(self, c):
        out, stack = {c}, [c]
        while stack:
            x = stack.pop()
            for p, q in self.synonyms:
                for u, v in ((p, q), (q, p)):
                    if u == x and v not in out:
                        out.add(v)
                        stack.append(v)
        return out

    def leq(self, sub, sup):
        target = self.group(sup)
        seen, stack = set(self.group(sub)), list(self.group(sub))
        while stack:
            x = stack.pop()
            if x in target:
                return True
            for child, parent in self.isa:
                if child == x:
                    for y in self.group(parent) - seen:
                        seen.add(y)
                        stack.append(y)
        return False

    def match(self, sub, sup):
        if sub == sup:
            return True
        if sub.is_positional or sup.is_positional:
            return False
        return self.leq(sub, sup)

    def ambiguous(self, labels):
        return any(self.match(a, b) and self.match(b, a)
                   for i, a in enumerate(labels) for b in labels[i + 1:])


named = st.sampled_from(NAMED)
# is-a edges are drawn twice as often as synonyms: a synonym closing an is-a
# path into a cycle is the case that separates the two record checks
operations = st.lists(st.one_of(
    st.tuples(st.sampled_from(["same_as", "is_a", "is_a"]), named, named),
    st.tuples(st.just("record"), st.lists(st.sampled_from(POOL), max_size=5)),
), max_size=12)


def check_record(tax, ref, labels):
    expected = ref.ambiguous(labels)
    for build, value in ((T.record, T.num_f(1)), (T.record_ty, T.num_ty)):
        try:
            build(tax, [(label, value) for label in labels])
        except MalformedRecordError:
            assert expected, labels
        else:
            assert not expected, labels


@settings(max_examples=300, deadline=None)
@given(operations)
@example([("is_a", NAMED[0], NAMED[1]), ("is_a", NAMED[1], NAMED[2]),
          ("same_as", NAMED[0], NAMED[2])])
def test_memo_agrees_with_uncached_reference(ops):
    tax, ref = Taxonomy(), Reference()
    for op in ops:
        if op[0] == "same_as":
            tax.same_as(op[1], op[2])
            ref.synonyms.append((op[1], op[2]))
        elif op[0] == "is_a":
            closes_cycle = ref.leq(op[2], op[1])
            try:
                tax.add_is_a(op[1], op[2])
            except LatticeCycleError:
                assert closes_cycle
            else:
                assert not closes_cycle
                ref.isa.append((op[1], op[2]))
        else:
            check_record(tax, ref, op[1])
        # query every pair after every step, so a stale memo entry shows
        for a in POOL:
            for b in POOL:
                assert tax.label_match(a, b) == ref.match(a, b), (a, b)
                check_record(tax, ref, [a, b])


# -- mutual_pair against a check of every pair ---------------------------------

WIDE = [mk_concept(f"w{i}") for i in range(6)] + [positional(0), positional(1)]
wide_named = st.sampled_from(WIDE[:6])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["same_as", "is_a"]),
                          wide_named, wide_named), max_size=10),
       st.lists(st.lists(st.sampled_from(WIDE), max_size=6), max_size=4))
@example([("is_a", WIDE[4], WIDE[5]), ("same_as", WIDE[0], WIDE[1])],
         [[WIDE[0], WIDE[2], WIDE[1]]])
@example([("is_a", WIDE[0], WIDE[1]), ("is_a", WIDE[1], WIDE[2]),
          ("same_as", WIDE[0], WIDE[2]), ("is_a", WIDE[3], WIDE[4])],
         [[WIDE[3], WIDE[1], WIDE[5], WIDE[0]], [WIDE[2], WIDE[1]],
          [WIDE[6], WIDE[3], WIDE[6]]])
def test_mutual_pair_agrees_with_every_pair(edits, label_lists):
    tax = Taxonomy()
    for step in [None, *edits]:
        if step is not None:
            op, a, b = step
            try:
                (tax.same_as if op == "same_as" else tax.add_is_a)(a, b)
            except LatticeCycleError:
                pass
        for labels in label_lists:
            mutual = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]
                      if tax.label_match(a, b) and tax.label_match(b, a)]
            pair = tax.mutual_pair(labels)
            if pair is None:
                assert not mutual, labels
            else:
                assert pair in mutual, (pair, labels)
