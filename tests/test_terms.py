import copy
import dataclasses
import importlib
import itertools
import pickle
import pkgutil
import re

import pytest
from hypothesis import given, strategies as st

import flutes

from flutes.errors import ArityError, MalformedRecordError, ParseError, TermError
from flutes.sexp import parse_sexp, render_sexp
from flutes.store import Store
from flutes.taxonomy import Taxonomy, mk_concept, positional
from flutes.typecheck import infer_static_type, resolve_type
from flutes import classifier, terms as T


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

    def test_alias_names(self, tax):
        t = T.record(tax, [("a", T.term_name("joe")),
                           ("b", T.List((T.term_name("t1"),)))])
        assert T.alias_names(t) == {"joe", "t1"}

    def test_substituter_refuses_a_quantifier(self):
        # nothing substitutes under a binder, so none is compiled
        p = T.exists("t", T.num_ty, T.equals(T.Var("t"), T.Var("p")))
        with pytest.raises(TermError, match="quantifier"):
            T.substituter(p)
        with pytest.raises(TermError, match="quantifier"):
            T.substituter(T.And(T.TRUE, p))
        closed = T.exists("t", T.num_ty, T.equals(T.Var("t"), T.num_f(1)))
        assert T.substituter(closed)({"t": T.num_f(2)}) is closed


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
_STATIC_TYPES = (T.NumTy, T.StrTy, T.VoidTy, T.ListTy, T.RecordTy, T.EnumTy)


class TestValues:
    """The value base keeps what the frozen dataclasses gave: equality by
    class and fields, the hash of the field tuple, the repr, immutability;
    the static types are one instance per field tuple instead."""

    @pytest.mark.parametrize("node", [x for x, _ in _SAMPLES] + _LEAVES,
                             ids=_SAMPLE_IDS + [type(x).__name__ for x in _LEAVES])
    def test_equality_hash_repr_and_immutability(self, node):
        copy = type(node)(*[getattr(node, name) for name in node._fields])
        assert copy == node and not copy != node
        fields = tuple(getattr(node, name) for name in node._fields)
        if type(node) in _STATIC_TYPES:      # one instance, hashed by identity
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

    @pytest.mark.parametrize("value", [True, False, "1", None, 1j,
                                       2 ** 53 + 1, -(2 ** 53) - 1, 10 ** 400],
                             ids=["True", "False", "str", "None", "complex",
                                  "2**53+1", "-2**53-1", "10**400"])
    def test_number_that_no_float_holds_is_refused(self, value):
        # a bool would be logged as (num True), which no reader takes, and an
        # int a float rounds would read back as another number
        with pytest.raises(TermError):
            T.Num(value)

    def test_int_is_held_as_its_float(self, tmp_path):
        assert T.Num(1).value == 1.0 and type(T.Num(1).value) is float
        assert render_sexp(T.Num(1)) == render_sexp(T.num_f(1.0)) == "(num 1.0)"
        assert T.Num(2 ** 53).value == 2.0 ** 53
        path = str(tmp_path / "kb")
        with Store(path) as s:
            s.abox_insert("one", T.Num(1))
            s.abox_insert("big", T.Num(2 ** 53))
            live = s.dump_state()
        with Store(path) as s:
            assert s.dump_state() == live

    @given(st.one_of(st.integers(), st.integers(2 ** 52, 2 ** 64),
                     st.floats(allow_nan=False, allow_infinity=False)))
    def test_number_renders_as_it_reads_back(self, x):
        try:
            n = T.Num(x)
        except TermError:
            assert type(x) is int and float(x) != x
            return
        text = render_sexp(n)
        assert parse_sexp(text) == n
        assert render_sexp(parse_sexp(text)) == text

    @pytest.mark.parametrize("make", [T.Str, T.TermAlias], ids=["Str", "alias"])
    @pytest.mark.parametrize("value", [5, None, b"x", ("x",)],
                             ids=["int", "None", "bytes", "tuple"])
    def test_text_field_that_is_no_str_is_refused(self, make, value):
        # the writer would meet it: quote_string has no int to translate
        with pytest.raises(TermError, match="holds a str"):
            make(value)

    def test_empty_enum_type_is_refused(self, tmp_path):
        # the reader refused (enumty ()), so a store that took one live
        # could not be opened again
        path = str(tmp_path / "kb")
        with Store(path) as s:
            s.mk_kb_class("a", T.enum_ty(["x"]))
            with pytest.raises(TermError, match="needs at least one concept"):
                s.mk_kb_class("e", T.EnumTy(()))
        with Store(path) as s:
            assert list(s.classes) == ["a"]
        with pytest.raises(ParseError, match="needs at least one concept"):
            parse_sexp("(enumty ())")

    def test_wrong_argument_count_is_refused(self):
        with pytest.raises(TypeError):
            T.Exists("x", T.num_ty)
        with pytest.raises(TypeError):
            T.Str()
        with pytest.raises(TypeError):
            T.RecordTy()
        with pytest.raises(TypeError):
            T.ListTy(T.num_ty, T.num_ty)


class TestIdentity:
    """Identity is the only equality of static types: each path that builds
    one returns the one interned instance.  The types that hold names,
    terms or propositions (`TyAlias`, `SubsetTy`) keep field equality."""

    def test_no_value_equality(self):
        for cls in _STATIC_TYPES:
            assert cls.__eq__ is object.__eq__
            assert cls.__hash__ is object.__hash__
        for cls in (T.TyAlias, T.SubsetTy):
            assert cls.__eq__ is not object.__eq__
        alias = T.TyAlias("ident_alias")
        assert T.TyAlias("ident_alias") == alias
        assert T.TyAlias("ident_alias") is not alias

    def test_constructors_return_the_interned_type(self, tax):
        enum = T.EnumTy((mk_concept("ident_a"), mk_concept("ident_b")))
        assert T.enum_ty(["ident_a", "ident_b"]) is enum
        person = T.RecordTy(((mk_concept("ident_name"), T.StrTy()),
                             (mk_concept("ident_tags"), T.ListTy(enum))))
        assert T.record_ty(tax, [("ident_tags", T.ListTy(T.enum_ty(
            ["ident_a", "ident_b"]))), ("ident_name", T.str_ty)]) is person
        inner = T.RecordTy(((positional(0), T.num_ty), (positional(1), person)))
        assert T.pred_ty("ident_p", [T.NumTy(), person]) is T.RecordTy(
            ((mk_concept("ident_p"), inner),))
        assert T.triple_ty("ident_p", T.num_ty, person) is T.pred_ty(
            "ident_p", [T.num_ty, person])
        assert T.map_parts(person, lambda x: x) is person
        assert T.map_parts(T.ListTy(person), lambda x: x) is T.ListTy(person)

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                     lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_return_the_interned_type(self, tax, how):
        ty = T.record_ty(tax, [("ident_copy", T.ListTy(T.enum_ty(["ident_c"]))),
                               ("ident_void", T.void_ty)])
        assert how(ty) is ty
        # an alias inside is rebuilt equal, and the record type around it
        # is the same instance again
        holder = T.record_ty(tax, [("ident_ref", T.TyAlias("ident_target"))])
        assert how(holder) is holder
        subset = T.SubsetTy(T.Var("x"), ty, T.TRUE)
        assert how(subset) == subset and how(subset).binding_type is ty

    def test_readers_return_the_interned_type(self, tax):
        ty = T.record_ty(tax, [("ident_read", T.ListTy(T.enum_ty(["ident_r"]))),
                               ("ident_num", T.num_ty)])
        assert parse_sexp(render_sexp(ty)) is ty
        assert parse_sexp("(recordty ((ident_num (numty)) (ident_read "
                          "(listty (enumty (ident_r))))))") is ty
        aliased = T.record_ty(tax, [("ident_read", T.TyAlias("ident_list")),
                                    ("ident_num", T.num_ty)])
        targets = {"ident_list": T.SubsetTy(T.Var("l"), T.ListTy(T.enum_ty(
            ["ident_r"])), T.TRUE)}
        assert resolve_type(aliased, targets.get) is ty
        term = T.record(tax, [("ident_read", T.List((T.atom("ident_r"),))),
                              ("ident_num", T.num_f(1))])
        assert infer_static_type(term, tax) is ty

    def test_stores_share_the_instance(self):
        stores = [Store(), Store()]
        for s in stores:
            s.abox_insert("a", T.record(s.tax, [("ident_store", T.string("A"))]))
            classifier.promote_untyped(s)
            s.mk_kb_class("c", T.record_ty(s.tax, [("ident_store", T.str_ty)]))
        first, second = stores
        assert first.type_of("a") is second.type_of("a")
        assert first.kb_class("c").ty is second.kb_class("c").ty
        assert first.type_of("a") is first.kb_class("c").ty


def _value_classes():
    """Every subclass of Value, in every flutes module."""
    for info in pkgutil.iter_modules(flutes.__path__):
        importlib.import_module(f"flutes.{info.name}")
    out, stack = [], [T.Value]
    while stack:
        subclasses = stack.pop().__subclasses__()
        stack.extend(subclasses)
        out.extend(subclasses)
    return out


def _value_samples():
    """One instance of every concrete value class."""
    from flutes.rules import Analytic
    from flutes.syntax import Declaration
    from flutes.typecheck import Leaf, ListNode, RecordNode
    leaf = Leaf(T.Num)
    a = mk_concept("a")
    return ([x for x, _ in _SAMPLES] + _LEAVES
            + [leaf, Leaf(None), ListNode(leaf), RecordNode(((a, a, leaf),), (mk_concept("b"),)),
               Analytic("an", "in", "out", repr),
               Declaration("d", T.Str("x"))])


class TestSlots:
    """Every value class keeps its fields in slots, so no value holds a
    `__dict__`, and copies rebuild through the constructor."""

    def test_every_value_class_is_slotted(self):
        for cls in _value_classes():
            assert cls.__slots__ == tuple(cls.__dict__.get("__annotations__", ())), cls
            assert cls.__dictoffset__ == 0, cls
        concrete = {cls for cls in _value_classes() if not cls.__subclasses__()}
        assert {type(x) for x in _value_samples()} == concrete

    @pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                     lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_rebuild_an_equal_value(self, how):
        for x in _value_samples():
            assert not hasattr(x, "__dict__")
            again = how(x)
            assert type(again) is type(x) and again == x
            if type(x) in _STATIC_TYPES:
                assert again is x
