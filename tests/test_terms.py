import copy
import dataclasses
import itertools
import pickle
import re

import pytest

from flutes.errors import ArityError, MalformedRecordError, TermError
from flutes.taxonomy import Taxonomy, mk_concept, positional
from flutes import terms as T


@pytest.fixture
def tax():
    return Taxonomy()


class TestConstructors:
    def test_record_fields_sorted_by_label_order(self, tax):
        r = T.record(tax, [("name", T.string("Joe")),
                           ("birth_date", T.string("1984-06-27"))])
        assert [c.name for c, _ in r.fields] == ["birth_date", "name"]

    def test_positional_fields_precede_named(self, tax):
        r = T.Record(T.sort_fields([
            (mk_concept("z"), T.num_f(1)),
            (positional(1), T.num_f(2)),
            (positional(0), T.num_f(3)),
        ]))
        assert [c.sort_key()[:2] for c, _ in r.fields] == [(0, 0), (0, 1), (1, 0)]

    def test_equivalent_labels_rejected(self, tax):
        tax.same_as(mk_concept("dob"), mk_concept("birth_date"))
        with pytest.raises(MalformedRecordError):
            T.record(tax, [("dob", T.string("x")), ("birth_date", T.string("y"))])

    def test_duplicate_labels_rejected(self, tax):
        with pytest.raises(MalformedRecordError):
            T.record(tax, [("a", T.num_f(1)), ("a", T.num_f(2))])

    def test_hyponym_only_labels_allowed(self, tax):
        # one-way label_match does not make the pairing ambiguous
        tax.add_is_a(mk_concept("check"), mk_concept("payment"))
        r = T.record(tax, [("check", T.num_f(1)), ("payment", T.num_f(2))])
        assert len(r.fields) == 2

    def test_mutual_hyponyms_with_distinct_roots_rejected(self, tax):
        # x is-a y is-a z, x ~ z: x and y match both ways though their
        # union-find roots differ
        x, y, z = (mk_concept(n) for n in "xyz")
        tax.add_is_a(x, y)
        tax.add_is_a(y, z)
        tax.same_as(x, z)
        assert tax.find(x) != tax.find(y)
        with pytest.raises(MalformedRecordError, match="equivalent"):
            T.record(tax, [("x", T.num_f(1)), ("y", T.num_f(2))])
        with pytest.raises(MalformedRecordError, match="equivalent"):
            T.record_ty(tax, [("x", T.num_ty), ("y", T.num_ty)])
        T.record(tax, [("x", T.num_f(1)), ("w", T.num_f(2))])

    def test_duplicate_positions_rejected(self, tax):
        with pytest.raises(MalformedRecordError):
            T.record(tax, [(positional(0), T.num_f(1)),
                           (positional(0), T.num_f(2))])
        T.record(tax, [(positional(0), T.num_f(1)),
                       (positional(1), T.num_f(2))])

    def test_num_rejects_non_finite(self):
        with pytest.raises(TermError):
            T.num_f(float("inf"))
        with pytest.raises(TermError):
            T.num_f(float("nan"))
        with pytest.raises(TermError):
            T.Num(float("-inf"))
        assert T.num_f(500) == T.Num(500.0)

    def test_pred_app_positional_encoding(self):
        t = T.triple("orig-of", T.term_name("joe"), T.term_name("t1"))
        ((head, inner),) = t.fields
        assert head == mk_concept("orig-of")
        assert inner == T.Record(((positional(0), T.TermAlias("joe")),
                                  (positional(1), T.TermAlias("t1"))))

    def test_pred_app_requires_arguments(self):
        with pytest.raises(ArityError):
            T.pred_app("p", [])
        with pytest.raises(ArityError):
            T.pred_ty("p", [])

    def test_enum_requires_concepts(self):
        with pytest.raises(TermError):
            T.enum_ty([])

    def test_subset_ty_rejects_captured_binding_vars(self):
        body = T.exists("p", T.num_ty, T.TRUE)
        with pytest.raises(TermError):
            T.subset_ty(T.Var("p"), T.num_ty, body)
        # distinct names are fine
        T.subset_ty(T.Var("q"), T.num_ty, body)


class TestPredAppParts:
    def test_round_trip(self):
        t = T.triple("recv-of", T.term_name("sue"), T.term_name("t1"))
        head, args = T.pred_app_parts(t)
        assert head.name == "recv-of"
        assert args == (T.TermAlias("sue"), T.TermAlias("t1"))

    def test_plain_records_are_not_pred_apps(self, tax):
        obj = T.record(tax, [("name", T.string("Joe"))])
        assert T.pred_app_parts(obj) is None
        two = T.record(tax, [("a", T.num_f(1)), ("b", T.num_f(2))])
        assert T.pred_app_parts(two) is None


class TestVariables:
    def test_free_vars_in_terms(self, tax):
        t = T.record(tax, [("a", T.Var("x")),
                           ("b", T.List((T.Var("y"), T.num_f(1))))])
        assert T.free_vars(t) == {"x", "y"}

    def test_exists_binds(self):
        p = T.exists("t", T.num_ty, T.equals(T.Var("t"), T.Var("p")))
        assert T.free_vars(p) == {"p"}

    def test_substitute_only_free(self):
        p = T.exists("t", T.num_ty, T.equals(T.Var("t"), T.Var("p")))
        q = T.substitute({"t": T.num_f(1), "p": T.num_f(2)}, p)
        assert q == T.exists("t", T.num_ty, T.equals(T.Var("t"), T.num_f(2)))

    def test_substitute_avoids_capture(self):
        # replacing p with a term mentioning t must not capture t
        p = T.exists("t", T.num_ty, T.equals(T.Var("t"), T.Var("p")))
        q = T.substitute({"p": T.Var("t")}, p)
        assert isinstance(q, T.Exists)
        assert q.var != "t"
        assert q.body == T.equals(T.Var(q.var), T.Var("t"))

    def test_alias_names(self, tax):
        t = T.record(tax, [("a", T.term_name("joe")),
                           ("b", T.List((T.term_name("t1"),)))])
        assert T.alias_names(t) == {"joe", "t1"}

    def test_fresh_binder_avoids_inserted_variables(self):
        # the renamed binder must not be a free variable of a value
        # substituted in, which it would then capture
        p = T.exists("x", T.num_ty, T.equals(T.Var("x"), T.Var("y")))
        inserted = T.List((T.Var("x"), T.Var("x__1")))
        q = T.substitute({"y": inserted}, p)
        assert T.free_vars(q) == {"x", "x__1"}
        assert q.body == T.equals(T.Var(q.var), inserted)

    def test_substitute_reaches_the_bound_type(self):
        # the bound type lies outside the binder's scope, where free_vars
        # counts its variables, so substitution replaces them too
        nested = T.SubsetTy(T.Var("z"), T.num_ty, T.equals(T.Var("z"), T.Var("x")))
        p = T.Exists("x", nested, T.equals(T.Var("x"), T.Var("z")))
        assert T.free_vars(p) == {"x", "z"}
        q = T.substitute({"z": T.num_f(1), "x": T.num_f(2)}, p)
        assert T.free_vars(q) == set()
        assert q == T.Exists("x", T.SubsetTy(T.num_f(1), T.num_ty, T.equals(
            T.num_f(1), T.num_f(2))), T.equals(T.Var("x"), T.num_f(1)))


def _marked_samples():
    """(node, markers) for one instance of every node class with parts,
    each part holding its own markers: a Var or a TermAlias in a term, a
    TyAlias in a type, and a predicate over two term markers in a
    proposition."""
    n = itertools.count()
    made = []

    def term():
        i = next(n)
        made.append(T.Var(f"v{i}") if i % 2 else T.TermAlias(f"a{i}"))
        return made[-1]

    def ty():
        made.append(T.TyAlias(f"y{next(n)}"))
        return made[-1]

    def prop():
        return T.equals(term(), term())

    a, b = mk_concept("a"), mk_concept("b")
    builds = [
        lambda: T.Record(((a, term()), (b, term()))),
        lambda: T.List((term(), term())),
        lambda: T.FieldSelection(term(), a),
        lambda: T.ListTy(ty()),
        lambda: T.RecordTy(((a, ty()), (b, ty()))),
        lambda: T.SubsetTy(term(), ty(), prop()),
        lambda: T.BuiltinPred(T.PredOp.LT, (term(), term())),
        lambda: T.And(prop(), prop()),
        lambda: T.Or(prop(), prop()),
        lambda: T.Not(prop()),
        lambda: T.Exists("bound", ty(), prop()),
        lambda: T.InSequence(term(), (term(), term())),
    ]
    out = []
    for build in builds:
        made.clear()
        out.append((build(), list(made)))
    return out


_SAMPLES = _marked_samples()
_SAMPLE_IDS = [type(x).__name__ for x, _ in _SAMPLES]


def _node_classes():
    """Every concrete node class: each class below Term, Type and Prop."""
    out, stack = [], [T.Term, T.Type, T.Prop]
    while stack:
        subclasses = stack.pop().__subclasses__()
        stack.extend(subclasses)
        out.extend(subclasses)
    return out


class TestShapes:
    def test_every_class_with_parts_has_a_shape(self):
        holds_nodes = re.compile(r"\b(Term|Type|Prop)\b")
        with_parts = {cls for cls in _node_classes()
                      if any(holds_nodes.search(str(cls.__annotations__[name]))
                             for name in cls._fields)}
        assert with_parts == set(T._SHAPES)
        assert {type(x) for x, _ in _SAMPLES} == with_parts

    @pytest.mark.parametrize("node, markers", _SAMPLES, ids=_SAMPLE_IDS)
    def test_walkers_reach_every_part(self, node, markers):
        seen = T.nodes(node)
        assert all(m in seen for m in markers)
        assert T.free_vars(node) == {m.name for m in markers
                                     if type(m) is T.Var}
        assert T.alias_names(node) == {m.name for m in markers
                                       if type(m) is T.TermAlias}
        assert T.type_alias_names(node) == {m.name for m in markers
                                            if type(m) is T.TyAlias}

    @pytest.mark.parametrize("node, markers", _SAMPLES, ids=_SAMPLE_IDS)
    def test_map_rebuilds_each_part_in_place(self, node, markers):
        assert T.map_parts(node, lambda x: x) == node
        tagged = T.map_parts(node, lambda x: ("new", x))
        assert list(T.parts(tagged)) == [("new", x) for x in T.parts(node)]


_LEAVES = [T.num_f(1.5), T.Str("a"), T.atom("a"), T.Bottom(mk_concept("b")),
           T.Var("v"), T.TermAlias("t"), T.num_ty, T.str_ty, T.void_ty,
           T.enum_ty(["a", "b"]), T.TyAlias("y"), T.TRUE, T.FALSE]
_ATOMIC_TYPES = (T.NumTy, T.StrTy, T.VoidTy)


class TestValues:
    """The value base keeps what the frozen dataclasses gave: equality by
    class and fields, the hash of the field tuple, the repr, immutability;
    the types without parts are one instance each instead."""

    @pytest.mark.parametrize("node", [x for x, _ in _SAMPLES] + _LEAVES,
                             ids=_SAMPLE_IDS + [type(x).__name__ for x in _LEAVES])
    def test_equality_hash_repr_and_immutability(self, node):
        copy = type(node)(*[getattr(node, name) for name in node._fields])
        assert copy == node and not copy != node
        fields = tuple(getattr(node, name) for name in node._fields)
        if type(node) in _ATOMIC_TYPES:      # one instance, hashed by identity
            assert copy is node
            assert hash(node) == object.__hash__(node)
        else:
            assert copy is not node
            assert hash(node) == hash(copy) == hash(fields)
        assert repr(node) == "{}({})".format(type(node).__name__, ", ".join(
            f"{name}={value!r}" for name, value in zip(node._fields, fields)))
        for name in node._fields or ("anything",):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(node, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(node, name)
        assert node == copy      # unchanged by the refused edits

    @pytest.mark.parametrize("node", [T.num_ty, T.str_ty, T.void_ty],
                             ids=["NumTy", "StrTy", "VoidTy"])
    def test_atomic_types_are_unique_and_compare_by_identity(self, node):
        cls = type(node)
        assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert pickle.loads(pickle.dumps(node)) is node
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__
        with pytest.raises(TypeError):
            cls(None)

    def test_same_fields_of_another_class_differ(self):
        assert T.Str("a") != T.TermAlias("a")
        assert T.And(T.TRUE, T.FALSE) != T.Or(T.TRUE, T.FALSE)
        assert T.num_ty != T.str_ty and T.TRUE != T.FALSE
        assert T.Str("a") != ("a",) and T.Str("a").__eq__("a") is NotImplemented

    def test_repr_text(self):
        assert repr(T.num_f(2)) == "Num(value=2.0)"
        assert repr(T.num_ty) == "NumTy()"
        assert repr(T.Exists("x", T.TyAlias("p"), T.TRUE)) == (
            "Exists(var='x', bound_type=TyAlias(name='p'), body=TrueProp())")

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_number_is_refused(self, value):
        with pytest.raises(TermError):
            T.Num(value)

    def test_wrong_argument_count_is_refused(self):
        with pytest.raises(TypeError):
            T.Exists("x", T.num_ty)
        with pytest.raises(TypeError):
            T.Str()
