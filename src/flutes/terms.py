"""The term, type, and proposition languages.

Terms are the graph values (objects are records, relationships are
predicate-application records); types are graph schemas; propositions are
the condition language of subset types.  All three are immutable values.

The smart constructors at the bottom are the only supported way to build
well-formed values: they intern labels, keep record fields sorted under the
concept order, and reject label collisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Union

from .errors import ArityError, MalformedRecordError, TermError
from .taxonomy import Concept, Taxonomy, mk_concept, positional


# ---------------------------------------------------------------------------
# data model


class Term:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Term):
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise TermError("numeric terms must be finite")


@dataclass(frozen=True)
class Str(Term):
    value: str


@dataclass(frozen=True)
class Atom(Term):
    concept: Concept


@dataclass(frozen=True)
class Record(Term):
    fields: tuple[tuple[Concept, "Term"], ...]


@dataclass(frozen=True)
class List(Term):
    items: tuple["Term", ...]


@dataclass(frozen=True)
class Bottom(Term):
    """An essential property whose value is unknown; carries its concept."""

    concept: Concept


@dataclass(frozen=True)
class FieldSelection(Term):
    base: "Term"
    label: Concept


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class TermAlias(Term):
    """A by-name reference to a declared term."""

    name: str


class Type:
    __slots__ = ()


@dataclass(frozen=True)
class NumTy(Type):
    pass


@dataclass(frozen=True)
class StrTy(Type):
    pass


# The composite types compute their hash once, on first use, and keep it in
# the instance dict (it is not a field, so equality and repr ignore it): they
# key the proof memo and the store's intern table, and hashing a wide record
# type field by field on every lookup would cost what the memo saves.  A type
# that is never hashed (most that inference builds and drops) costs nothing
# extra.

@dataclass(frozen=True)
class ListTy(Type):
    elem: "Type"

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.elem,))
        return h


@dataclass(frozen=True)
class RecordTy(Type):
    fields: tuple[tuple[Concept, "Type"], ...]

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.fields,))
        return h


@dataclass(frozen=True)
class EnumTy(Type):
    concepts: tuple[Concept, ...]

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.concepts,))
        return h


@dataclass(frozen=True)
class VoidTy(Type):
    pass


@dataclass(frozen=True)
class SubsetTy(Type):
    binding_term: Term
    binding_type: "Type"
    prop: "Prop"


@dataclass(frozen=True)
class TyAlias(Type):
    name: str


class PredOp(Enum):
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"


class Prop:
    __slots__ = ()


@dataclass(frozen=True)
class BuiltinPred(Prop):
    op: PredOp
    args: tuple[Term, ...]


@dataclass(frozen=True)
class And(Prop):
    left: "Prop"
    right: "Prop"


@dataclass(frozen=True)
class Or(Prop):
    left: "Prop"
    right: "Prop"


@dataclass(frozen=True)
class Not(Prop):
    body: "Prop"


@dataclass(frozen=True)
class Exists(Prop):
    var: str
    bound_type: Type
    body: "Prop"


@dataclass(frozen=True)
class TrueProp(Prop):
    pass


@dataclass(frozen=True)
class FalseProp(Prop):
    pass


@dataclass(frozen=True)
class InSequence(Prop):
    item: Term
    items: tuple[Term, ...]


TRUE = TrueProp()
FALSE = FalseProp()

Node = Union[Term, Type, Prop]


# ---------------------------------------------------------------------------
# term constructors


def num(value: int) -> Num:
    return Num(float(value))


def num_f(value: float) -> Num:
    return Num(float(value))


def string(value: str) -> Str:
    return Str(value)


def atom(name: str) -> Atom:
    return Atom(mk_concept(name))


def term_list(items: Iterable[Term]) -> List:
    return List(tuple(items))


def var(name: str) -> Var:
    if not name:
        raise TermError("variable name must be nonempty")
    return Var(name)


def term_name(name: str) -> TermAlias:
    if not name:
        raise TermError("term alias must be nonempty")
    return TermAlias(name)


def bottom(label: str | Concept) -> Bottom:
    return Bottom(_as_concept(label))


def _as_concept(label: str | Concept) -> Concept:
    return label if isinstance(label, Concept) else mk_concept(label)


def sort_fields(fields: Iterable[tuple[Concept, Node]]) -> tuple:
    return tuple(sorted(fields, key=lambda f: f[0].sort_key()))


def _check_labels(tax: Taxonomy, labels: list[Concept], what: str) -> None:
    # mutual label_match (synonymy or identity) makes subtype field pairing
    # ambiguous, so such label pairs are rejected outright
    pair = tax.mutual_pair(labels)
    if pair is not None:
        a, b = pair
        raise MalformedRecordError(f"{what} labels {a!r} and {b!r} are equivalent")


def record(tax: Taxonomy, fields: Iterable[tuple[str | Concept, Term]]) -> Record:
    pairs = [(_as_concept(label), value) for label, value in fields]
    _check_labels(tax, [label for label, _ in pairs], "record")
    return Record(sort_fields(pairs))


def pred_app(name: str, args: Iterable[Term]) -> Record:
    """Encode a predicate application as a record with positional fields."""
    args = tuple(args)
    if not args:
        raise ArityError(f"predicate {name!r} applied to no arguments")
    inner = Record(tuple((positional(i), a) for i, a in enumerate(args)))
    return Record(((mk_concept(name), inner),))


def triple(name: str, first: Term, second: Term) -> Record:
    return pred_app(name, (first, second))


def record_select(base: Term, label: str | Concept) -> FieldSelection:
    return FieldSelection(base, _as_concept(label))


def pred_arg_select(base: Term, index: int) -> FieldSelection:
    return FieldSelection(base, positional(index))


# ---------------------------------------------------------------------------
# type constructors

num_ty = NumTy()
str_ty = StrTy()
void_ty = VoidTy()


def list_ty(elem: Type) -> ListTy:
    return ListTy(elem)


def record_ty(tax: Taxonomy, fields: Iterable[tuple[str | Concept, Type]]) -> RecordTy:
    pairs = [(_as_concept(label), ty) for label, ty in fields]
    _check_labels(tax, [label for label, _ in pairs], "record type")
    return RecordTy(sort_fields(pairs))


def enum_ty(names: Iterable[str | Concept]) -> EnumTy:
    concepts = tuple(_as_concept(n) for n in names)
    if not concepts:
        raise TermError("enum type needs at least one concept")
    return EnumTy(concepts)


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
    shadowed = free_vars(binding_term) & _quantified_vars(prop)
    if shadowed:
        raise TermError(
            f"binding-term variables {sorted(shadowed)} are captured by a quantifier")
    return SubsetTy(binding_term, binding_type, prop)


# ---------------------------------------------------------------------------
# proposition constructors


def _builtin(op: PredOp, a: Term, b: Term) -> BuiltinPred:
    return BuiltinPred(op, (a, b))


def equals(a: Term, b: Term) -> BuiltinPred:
    return _builtin(PredOp.EQ, a, b)


def less_than(a: Term, b: Term) -> BuiltinPred:
    return _builtin(PredOp.LT, a, b)


def less_equal(a: Term, b: Term) -> BuiltinPred:
    return _builtin(PredOp.LE, a, b)


def greater_than(a: Term, b: Term) -> BuiltinPred:
    return _builtin(PredOp.GT, a, b)


def greater_equal(a: Term, b: Term) -> BuiltinPred:
    return _builtin(PredOp.GE, a, b)


def conj(a: Prop, b: Prop) -> And:
    return And(a, b)


def disj(a: Prop, b: Prop) -> Or:
    return Or(a, b)


def neg(p: Prop) -> Not:
    return Not(p)


def exists(name: str, bound_type: Type, body: Prop) -> Exists:
    return Exists(name, bound_type, body)


def in_sequence(item: Term, items: Iterable[Term]) -> InSequence:
    return InSequence(item, tuple(items))


# ---------------------------------------------------------------------------
# variables and substitution


def free_vars(node: Node) -> set[str]:
    """Names of variables not bound by an enclosing existential."""
    out: set[str] = set()
    _free_vars(node, frozenset(), out)
    return out


def _free_vars(node: Node, bound: frozenset, out: set[str]) -> None:
    if isinstance(node, Var):
        if node.name not in bound:
            out.add(node.name)
    elif isinstance(node, Record):
        for _, v in node.fields:
            _free_vars(v, bound, out)
    elif isinstance(node, List):
        for item in node.items:
            _free_vars(item, bound, out)
    elif isinstance(node, FieldSelection):
        _free_vars(node.base, bound, out)
    elif isinstance(node, BuiltinPred):
        for a in node.args:
            _free_vars(a, bound, out)
    elif isinstance(node, (And, Or)):
        _free_vars(node.left, bound, out)
        _free_vars(node.right, bound, out)
    elif isinstance(node, Not):
        _free_vars(node.body, bound, out)
    elif isinstance(node, Exists):
        _free_vars(node.bound_type, bound, out)
        _free_vars(node.body, bound | {node.var}, out)
    elif isinstance(node, InSequence):
        _free_vars(node.item, bound, out)
        for item in node.items:
            _free_vars(item, bound, out)
    elif isinstance(node, SubsetTy):
        _free_vars(node.binding_term, bound, out)
        _free_vars(node.prop, bound, out)
    elif isinstance(node, (ListTy, RecordTy)):
        if isinstance(node, ListTy):
            _free_vars(node.elem, bound, out)
        else:
            for _, t in node.fields:
                _free_vars(t, bound, out)
    # leaves: Num/Str/Atom/Bottom/TermAlias and the remaining type/prop atoms


def _quantified_vars(p: Prop) -> set[str]:
    out: set[str] = set()
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Exists):
            out.add(node.var)
            stack.append(node.body)
        elif isinstance(node, (And, Or)):
            stack.extend((node.left, node.right))
        elif isinstance(node, Not):
            stack.append(node.body)
    return out


Subst = Mapping[str, Term]


def substitute(s: Subst, t: Term) -> Term:
    """Replace free variables in a term; bound occurrences are untouched."""
    if isinstance(t, Var):
        return s.get(t.name, t)
    if isinstance(t, Record):
        return Record(tuple((c, substitute(s, v)) for c, v in t.fields))
    if isinstance(t, List):
        return List(tuple(substitute(s, i) for i in t.items))
    if isinstance(t, FieldSelection):
        return FieldSelection(substitute(s, t.base), t.label)
    return t


def substitute_prop(s: Subst, p: Prop) -> Prop:
    """Capture-avoiding substitution over propositions."""
    if isinstance(p, BuiltinPred):
        return BuiltinPred(p.op, tuple(substitute(s, a) for a in p.args))
    if isinstance(p, And):
        return And(substitute_prop(s, p.left), substitute_prop(s, p.right))
    if isinstance(p, Or):
        return Or(substitute_prop(s, p.left), substitute_prop(s, p.right))
    if isinstance(p, Not):
        return Not(substitute_prop(s, p.body))
    if isinstance(p, InSequence):
        return InSequence(substitute(s, p.item),
                          tuple(substitute(s, i) for i in p.items))
    if isinstance(p, Exists):
        inner = {k: v for k, v in s.items() if k != p.var}
        if not inner:
            return p
        clash = any(p.var in free_vars(v) for v in inner.values())
        if clash:
            fresh = _fresh_name(p.var, set(inner) | free_vars(p.body))
            renamed = substitute_prop({p.var: Var(fresh)}, p.body)
            return Exists(fresh, p.bound_type, substitute_prop(inner, renamed))
        return Exists(p.var, p.bound_type, substitute_prop(inner, p.body))
    return p


def _fresh_name(base: str, taken: set[str]) -> str:
    i = 1
    while f"{base}__{i}" in taken:
        i += 1
    return f"{base}__{i}"


def alias_names(t: Term) -> set[str]:
    """All term-alias names occurring anywhere in a term."""
    out: set[str] = set()
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, TermAlias):
            out.add(node.name)
        elif isinstance(node, Record):
            stack.extend(v for _, v in node.fields)
        elif isinstance(node, List):
            stack.extend(node.items)
        elif isinstance(node, FieldSelection):
            stack.append(node.base)
    return out


def pred_app_parts(t: Term) -> tuple[Concept, tuple[Term, ...]] | None:
    """Decompose a predicate-application record into (name, args), if it is one."""
    if not (isinstance(t, Record) and len(t.fields) == 1):
        return None
    head, inner = t.fields[0]
    if head.is_positional or not isinstance(inner, Record):
        return None
    args = []
    for i, (label, value) in enumerate(inner.fields):
        if label != positional(i):
            return None
        args.append(value)
    return head, tuple(args)
