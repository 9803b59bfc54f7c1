"""The term, type, and proposition languages.

Terms are the graph values (objects are records, relationships are
predicate-application records); types are graph schemas; propositions are
the condition language of subset types.  All three are immutable values
on one base, `Value`: each node class declares its fields as annotations,
and the base gives it `__slots__` of those fields, a positional
constructor, equality and hash by class and field tuple, a
`Name(field=value, ...)` repr, and refuses assignment.
The static types (`NumTy`, `StrTy`, `VoidTy`, `ListTy`, `RecordTy` and
`EnumTy`) are hash-consed instead: each constructor is its class's intern
table, so equal static types are one object and compare and hash by
identity, and a type without parts has one instance (`num_ty`, `str_ty`,
`void_ty`).  `TyAlias` and `SubsetTy` hold names, terms and propositions
and keep field equality.

The constructors below intern the labels they take by name.  Two of them
enforce the record invariants: `record` and `record_ty` sort fields under
the concept order and refuse labels the taxonomy makes equivalent, a
repeated label included; they do that work once per shape (the labels in
the order given), which the taxonomy memoises until its next edit.  A value
built from the node classes directly skips those checks; the store refuses
one whose record fields are not in that order or whose labels are not
concepts (`check_labels`): the storage reader sorts fields, so such a value
would read back as another, or not at all.  `Num`, `Str`, `TermAlias` and
`EnumTy` check their own fields.

`_SHAPES` is the one place node shapes live: for every node class that
holds terms, types or propositions it names the parts and rebuilds the node
from new parts.  Every single-input structural walker goes through it:
`nodes`, `parts` and `map_parts` here, the folds `free_vars`,
`alias_names`, `type_alias_names` and `check_labels`, the compiled
substitution `substituter`, and the generic cases of `unify`,
`typecheck.resolve_type` and `clause.evaluator`.
"""

from __future__ import annotations

import math
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, Mapping, Union

from .errors import ArityError, MalformedRecordError, TermError
from .taxonomy import Concept, Taxonomy, mk_concept, positional


# ---------------------------------------------------------------------------
# data model


class _ValueType(type):
    """The metaclass of `Value`: a class's `__slots__` are its own annotated
    fields, so a node class is one declaration and its instances hold no
    `__dict__`.  `isinstance` and `issubclass` against a class whose
    metaclass is not `type` take the interpreter's slow path, about three
    times the cost, so hot code dispatches on `type(x)` instead."""

    def __new__(mcls, name, bases, namespace, **kwargs):
        namespace.setdefault("__slots__",
                             tuple(namespace.get("__annotations__", ())))
        return super().__new__(mcls, name, bases, namespace, **kwargs)


class Value(metaclass=_ValueType):
    """A frozen value class.  A subclass's annotated fields, in order, are
    its slots, set by its constructor (positional arguments) and never
    again; values are equal when they have the same class and equal field
    tuples, hash as their field tuple and print as `Name(field=value, ...)`,
    without compiling code per class.  Copy, deepcopy and pickle rebuild a
    value through its constructor, so it checks and interns them as it does
    any other.  A subclass declared with `interned=True` is hash-consed: its
    constructor returns the one instance per field tuple, so equality and
    hash are `object`'s; its fields must hold values that are equal only
    when interchangeable, such as interned values and concepts.  The table
    only grows, by one entry per distinct value built."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, interned: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(cls.__dict__.get("__annotations__", ()))
        init, cls.__eq__, cls.__hash__ = _field_methods(cls._fields)
        if "__init__" not in cls.__dict__:
            cls.__init__ = init
        if interned:
            _intern_instances(cls)

    def __repr__(self):
        args = [f"{name}={getattr(self, name)!r}" for name in self._fields]
        return f"{self.__class__.__qualname__}({', '.join(args)})"

    def __reduce__(self):
        return self.__class__, tuple([getattr(self, n) for n in self._fields])

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _intern_instances(cls: type) -> None:
    """Make cls's constructor its intern table, keyed by the arguments."""
    table: dict[tuple, Value] = {}
    init = cls.__init__

    def __new__(cls, *args):
        node = table.get(args)
        if node is None:
            node = object.__new__(cls)
            init(node, *args)
            table[args] = node
        return node

    cls.__new__ = __new__
    cls.__init__ = object.__init__   # __new__ has set the fields
    cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__


# sets a field past Value.__setattr__; a global, not `object.__setattr__`,
# whose attribute lookup on each call costs a tenth of building a Str
_set_field = object.__setattr__


def _field_methods(names: tuple[str, ...]) -> tuple[Callable, ...]:
    """__init__, __eq__ and __hash__ over the named fields, as closures of
    one shape per arity; the one- and two-field shapes, which most terms
    have, are spelled out, since building, hashing and comparing terms is
    the classifier's inner loop."""
    set_field = object.__setattr__
    if len(names) == 1:
        (a,) = names
        get = attrgetter(a)

        def __init__(self, x):
            set_field(self, a, x)

        def __eq__(self, other):
            # the 1-tuples' comparison: no field holds a value unequal to
            # itself (Num refuses NaN)
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self):
            return hash((get(self),))

        return __init__, __eq__, __hash__

    values = attrgetter(*names) if names else (lambda self: ())
    if len(names) == 2:
        a, b = names

        def __init__(self, x, y):
            set_field(self, a, x)
            set_field(self, b, y)
    else:
        def __init__(self, *args):
            if len(args) != len(names):
                raise TypeError(f"{self.__class__.__qualname__}() takes "
                                f"{len(names)} arguments, got {len(args)}")
            for name, x in zip(names, args):
                set_field(self, name, x)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    return __init__, __eq__, __hash__


class Term(Value):
    pass


class Num(Term):
    """A number, held as a finite float: an int is taken only when a float
    holds it exactly, so a term renders and reads back as it was built."""

    value: float

    def __init__(self, value):
        if type(value) is not float:
            value = _float(value)
        if not math.isfinite(value):
            raise TermError("numeric terms must be finite")
        _set_field(self, "value", value)


def _float(value) -> float:
    """What a Num holds for a value other than a float: a real number, not
    a bool, as a float, and an int only when the float is exact."""
    from numbers import Real
    if isinstance(value, bool) or not isinstance(value, Real):
        raise TermError(f"a numeric term holds a real number, not {value!r}")
    try:
        x = float(value)
    except OverflowError:
        raise TermError("numeric terms must be finite") from None
    if isinstance(value, int) and x != value:
        raise TermError(f"{value} has no exact float")
    return x


class Str(Term):
    value: str

    def __init__(self, value):
        # the exact type first, the cheaper test: the parser and the
        # storage reader build many
        if type(value) is not str and not isinstance(value, str):
            raise TermError(f"a string term holds a str, not {value!r}")
        _set_field(self, "value", value)


class Atom(Term):
    concept: Concept


class Record(Term):
    fields: tuple[tuple[Concept, "Term"], ...]


class List(Term):
    items: tuple["Term", ...]


class Bottom(Term):
    """An essential property whose value is unknown; carries its concept."""

    concept: Concept


class FieldSelection(Term):
    base: "Term"
    label: Concept


class Var(Term):
    name: str


class TermAlias(Term):
    """A by-name reference to a declared term."""

    name: str

    def __init__(self, name):
        if type(name) is not str and not isinstance(name, str):
            raise TermError(f"a term alias holds a str, not {name!r}")
        _set_field(self, "name", name)


class Type(Value):
    pass


class NumTy(Type, interned=True):
    pass


class StrTy(Type, interned=True):
    pass


class ListTy(Type, interned=True):
    elem: "Type"


class RecordTy(Type, interned=True):
    fields: tuple[tuple[Concept, "Type"], ...]


class EnumTy(Type, interned=True):
    concepts: tuple[Concept, ...]

    def __init__(self, concepts):
        if not concepts:
            raise TermError("enum type needs at least one concept")
        _set_field(self, "concepts", concepts)


class VoidTy(Type, interned=True):
    pass


class SubsetTy(Type):
    binding_term: Term
    binding_type: "Type"
    prop: "Prop"


class TyAlias(Type):
    name: str


class PredOp(Enum):
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"


class Prop(Value):
    pass


class BuiltinPred(Prop):
    op: PredOp
    args: tuple[Term, ...]


class And(Prop):
    left: "Prop"
    right: "Prop"


class Or(Prop):
    left: "Prop"
    right: "Prop"


class Not(Prop):
    body: "Prop"


class Exists(Prop):
    var: str
    bound_type: Type
    body: "Prop"


class TrueProp(Prop):
    pass


class FalseProp(Prop):
    pass


class InSequence(Prop):
    item: Term
    items: tuple[Term, ...]


TRUE = TrueProp()
FALSE = FalseProp()

Node = Union[Term, Type, Prop]


# ---------------------------------------------------------------------------
# term constructors


def num_f(value: float) -> Num:
    return Num(value)


def string(value: str) -> Str:
    return Str(value)


def atom(name: str) -> Atom:
    return Atom(mk_concept(name))


def var(name: str) -> Var:
    if not name:
        raise TermError("variable name must be nonempty")
    return Var(name)


def term_name(name: str) -> TermAlias:
    if not name:
        raise TermError("term alias must be nonempty")
    return TermAlias(name)


def sort_fields(fields: Iterable[tuple[Concept, Node]]) -> tuple:
    return tuple(sorted(fields, key=lambda f: f[0].sort_key()))


def _sorted_fields(tax: Taxonomy, fields: Iterable[tuple[str | Concept, Node]],
                   what: str) -> tuple:
    """The fields sorted under the concept order, their labels interned.
    The taxonomy's shape memo maps the labels, in the order given, to the
    sorted concepts and the source index of each, so labels are interned,
    checked and sorted once per shape until the next taxonomy edit."""
    fields = tuple(fields)
    labels = tuple([label for label, _ in fields])
    shape = tax.shapes.get(labels)
    if shape is None:
        concepts = [mk_concept(label) for label in labels]
        # mutual label_match (synonymy or identity) makes subtype field
        # pairing ambiguous, so such label pairs are rejected outright
        pair = tax.mutual_pair(concepts)
        if pair is not None:
            a, b = pair
            raise MalformedRecordError(
                f"{what} labels {a!r} and {b!r} are equivalent")
        shape = tax.shapes[labels] = sort_fields(zip(concepts, range(len(labels))))
    return tuple([(c, fields[i][1]) for c, i in shape])


def record(tax: Taxonomy, fields: Iterable[tuple[str | Concept, Term]]) -> Record:
    return Record(_sorted_fields(tax, fields, "record"))


def pred_app(name: str, args: Iterable[Term]) -> Record:
    """Encode a predicate application as a record with positional fields."""
    args = tuple(args)
    if not args:
        raise ArityError(f"predicate {name!r} applied to no arguments")
    inner = Record(tuple((positional(i), a) for i, a in enumerate(args)))
    return Record(((mk_concept(name), inner),))


def triple(name: str, first: Term, second: Term) -> Record:
    return pred_app(name, (first, second))


# ---------------------------------------------------------------------------
# type constructors

num_ty = NumTy()
str_ty = StrTy()
void_ty = VoidTy()


def record_ty(tax: Taxonomy, fields: Iterable[tuple[str | Concept, Type]]) -> RecordTy:
    return RecordTy(_sorted_fields(tax, fields, "record type"))


def enum_ty(names: Iterable[str | Concept]) -> EnumTy:
    return EnumTy(tuple(map(mk_concept, names)))


def pred_ty(name: str, arg_types: Iterable[Type]) -> RecordTy:
    arg_types = tuple(arg_types)
    if not arg_types:
        raise ArityError(f"predicate type {name!r} with no argument types")
    inner = RecordTy(tuple((positional(i), t) for i, t in enumerate(arg_types)))
    return RecordTy(((mk_concept(name), inner),))


def triple_ty(name: str, first: Type, second: Type) -> RecordTy:
    return pred_ty(name, (first, second))


def type_name(name: str) -> TyAlias:
    if not name:
        raise TermError("type alias must be nonempty")
    return TyAlias(name)


def subset_ty(binding_term: Term, binding_type: Type, prop: Prop) -> SubsetTy:
    quantified = {x.var for x in nodes(prop) if type(x) is Exists}
    shadowed = free_vars(binding_term) & quantified
    if shadowed:
        raise TermError(
            f"binding-term variables {sorted(shadowed)} are captured by a quantifier")
    return SubsetTy(binding_term, binding_type, prop)


# ---------------------------------------------------------------------------
# proposition constructors


def equals(a: Term, b: Term) -> BuiltinPred:
    return BuiltinPred(PredOp.EQ, (a, b))


def conj(a: Prop, b: Prop) -> And:
    return And(a, b)


def disj(a: Prop, b: Prop) -> Or:
    return Or(a, b)


def exists(name: str, bound_type: Type, body: Prop) -> Exists:
    return Exists(name, bound_type, body)


# ---------------------------------------------------------------------------
# node shapes and the walkers over them


_value = itemgetter(1)

# node class: (its parts in order, the node rebuilt with f(part) in place of
# each part); a class without an entry is a leaf.  Each mapper builds its
# node directly, not from a list of new parts, because evaluation and
# substitution rebuild terms in inner loops (a check's record-valued
# operands, the oracle's tuples).
_SHAPES = {
    Record: (lambda x: map(_value, x.fields),
             lambda x, f: Record(tuple([(l, f(v)) for l, v in x.fields]))),
    List: (lambda x: x.items,
           lambda x, f: List(tuple([f(i) for i in x.items]))),
    FieldSelection: (lambda x: (x.base,),
                     lambda x, f: FieldSelection(f(x.base), x.label)),
    ListTy: (lambda x: (x.elem,),
             lambda x, f: ListTy(f(x.elem))),
    RecordTy: (lambda x: map(_value, x.fields),
               lambda x, f: RecordTy(tuple([(l, f(t)) for l, t in x.fields]))),
    SubsetTy: (lambda x: (x.binding_term, x.binding_type, x.prop),
               lambda x, f: SubsetTy(f(x.binding_term), f(x.binding_type),
                                     f(x.prop))),
    BuiltinPred: (lambda x: x.args,
                  lambda x, f: BuiltinPred(x.op, tuple([f(t) for t in x.args]))),
    And: (lambda x: (x.left, x.right),
          lambda x, f: And(f(x.left), f(x.right))),
    Or: (lambda x: (x.left, x.right),
         lambda x, f: Or(f(x.left), f(x.right))),
    Not: (lambda x: (x.body,),
          lambda x, f: Not(f(x.body))),
    Exists: (lambda x: (x.bound_type, x.body),
             lambda x, f: Exists(x.var, f(x.bound_type), f(x.body))),
    InSequence: (lambda x: (x.item, *x.items),
                 lambda x, f: InSequence(f(x.item), tuple([f(t) for t in x.items]))),
}


def parts(node: Node) -> Iterable[Node]:
    """The node's direct sub-terms, sub-types and sub-propositions."""
    shape = _SHAPES.get(type(node))
    return () if shape is None else shape[0](node)


def map_parts(node: Node, f: Callable[[Node], Node]) -> Node:
    """The node rebuilt with f(part) in place of each part; a leaf as it is."""
    shape = _SHAPES.get(type(node))
    return node if shape is None else shape[1](node, f)


def nodes(root: Node) -> list[Node]:
    """Every node inside root, root first."""
    out = [root]
    for node in out:        # visits the parts it appends, breadth first
        shape = _SHAPES.get(type(node))
        if shape is not None:
            out.extend(shape[0](node))
    return out


def free_vars(node: Node) -> set[str]:
    """Names of variables not bound by an enclosing existential."""
    out: set[str] = set()
    _free_vars(node, frozenset(), out)
    return out


def _free_vars(node: Node, bound: frozenset, out: set[str]) -> None:
    cls = type(node)
    if cls is Var:
        if node.name not in bound:
            out.add(node.name)
    elif cls is Exists:
        _free_vars(node.bound_type, bound, out)
        _free_vars(node.body, bound | {node.var}, out)
    else:
        shape = _SHAPES.get(cls)
        if shape is not None:
            for part in shape[0](node):
                _free_vars(part, bound, out)


def alias_names(node: Node) -> set[str]:
    """All term-alias names occurring anywhere in a node."""
    return {x.name for x in nodes(node) if type(x) is TermAlias}


def type_alias_names(node: Node) -> set[str]:
    """All type-alias names occurring anywhere in a node."""
    return {x.name for x in nodes(node) if type(x) is TyAlias}


_ORDERED: set[tuple[Concept, ...]] = set()   # label tuples check_labels took


def check_labels(node: Node) -> None:
    """Refuse a term or type that holds a label or concept that is not a
    `Concept`, or a record whose labels are not in strictly ascending
    concept order, a repeated label included: the order `record`,
    `record_ty` and the storage reader build.  The store calls this for
    values built from the node classes directly, which its log would
    otherwise read back sorted, or not at all, and which nothing else could
    match or render.  Each record label tuple is checked once."""
    for x in nodes(node):
        cls = type(x)
        if cls is Record or cls is RecordTy:
            labels = tuple([l for l, _ in x.fields])
            if labels in _ORDERED:
                continue
            _check_concepts(labels)
            if len(set(labels)) < len(labels):
                repeated = next(l for i, l in enumerate(labels)
                                if l in labels[:i])
                raise MalformedRecordError(f"repeated label {repeated!r}")
            keys = [l.sort_key() for l in labels]
            if keys != sorted(keys):
                raise MalformedRecordError(
                    f"record labels {list(labels)} are out of order")
            _ORDERED.add(labels)
        elif cls is Atom or cls is Bottom:
            _check_concepts((x.concept,))
        elif cls is FieldSelection:
            _check_concepts((x.label,))
        elif cls is EnumTy:
            _check_concepts(x.concepts)


def _check_concepts(labels: Iterable) -> None:
    for label in labels:
        if type(label) is not Concept:
            raise TermError(f"label {label!r} is not a concept")


Subst = Mapping[str, Term]


def substituter(node: Node) -> Callable[[Subst], Node]:
    """Substitution compiled for a node that binds no variable, such as a
    subset class's binding term: the function maps a substitution to the
    node with its variables replaced, and rebuilds only the parts that
    hold one.  A record of one or two fields, the shape of a predicate
    application and of its arguments, is built directly.  A quantifier
    with a free variable in it is refused (TermError): nothing substitutes
    under one."""
    cls = type(node)
    if cls is Var:
        name = node.name
        return lambda s: s.get(name, node)
    shape = _SHAPES.get(cls)
    if shape is None or not free_vars(node):
        return lambda s: node
    if cls is Exists:
        raise TermError(f"cannot substitute under the quantifier on {node.var!r}")
    if cls is Record and len(node.fields) == 1:
        ((l0, v0),) = node.fields
        b0 = substituter(v0)
        return lambda s: Record(((l0, b0(s)),))
    if cls is Record and len(node.fields) == 2:
        (l0, v0), (l1, v1) = node.fields
        b0, b1 = substituter(v0), substituter(v1)
        return lambda s: Record(((l0, b0(s)), (l1, b1(s))))
    build = {id(p): substituter(p) for p in shape[0](node)}
    rebuild = shape[1]
    return lambda s: rebuild(node, lambda p: build[id(p)](s))


def pred_app_parts(t: Node) -> tuple[Concept, tuple[Node, ...]] | None:
    """Decompose a predicate-application record, or record type, into
    (name, args), if it is one."""
    cls = type(t)
    if not ((cls is Record or cls is RecordTy) and len(t.fields) == 1):
        return None
    head, inner = t.fields[0]
    if head.is_positional or type(inner) is not cls:
        return None
    args = []
    for i, (label, value) in enumerate(inner.fields):
        if label is not positional(i):
            return None
        args.append(value)
    return head, tuple(args)


def select_field(base: Node, label: Concept, tax: Taxonomy) -> Node | None:
    """What selecting `label` from a record, or a record type, yields: the
    part of its first field that `label_match` accepts, or None when base
    is neither or no field matches.  A positional label selects through a
    predicate application's one named field, from its arguments."""
    if label.is_positional:
        parts = pred_app_parts(base)
        if parts is not None:
            args = parts[1]
            return args[label.position] if label.position < len(args) else None
    if type(base) is not Record and type(base) is not RecordTy:
        return None
    for flabel, part in base.fields:
        if tax.label_match(flabel, label):
            return part
    return None
