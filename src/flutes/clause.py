"""Subset-type propositions compiled into skolem clauses.

Prefix existentials become skolem slots tied to other classes, the matrix
is put in negation normal form and distributed into disjuncts, and
equalities against a skolem variable become match literals.  The store
compiles each subset class once, when it is defined or replayed, so a
class that cannot be compiled is refused before it is logged.
"""

from dataclasses import dataclass

from . import terms as T
from .errors import UnsupportedPropError


@dataclass(frozen=True)
class EqLit:
    """pattern === skolem; solved by matching the pattern against candidate
    members of the skolem's class."""
    pattern: T.Term
    skolem: str


@dataclass(frozen=True)
class CheckLit:
    """A deferred test, evaluated once substitution makes it ground."""
    negated: bool
    prop: T.Prop


@dataclass(frozen=True)
class SkolemClause:
    skolems: tuple[tuple[str, str], ...]   # (variable, class name), outermost first
    disjuncts: tuple[tuple[object, ...], ...]


def skolemize(ty: T.SubsetTy) -> SkolemClause:
    """Compile a subset type's proposition into a skolem clause.

    Prefix existentials are stripped outside-in; each must be bound by a
    type alias naming a class.  The remaining matrix is put in negation
    normal form and distributed into disjuncts.  Quantifiers anywhere in
    the matrix (in particular under negation) are rejected.
    """
    skolems: list[tuple[str, str]] = []
    body = ty.prop
    while isinstance(body, T.Exists):
        if not isinstance(body.bound_type, T.TyAlias):
            raise UnsupportedPropError(
                f"existential for {body.var!r} must be bound by a class name")
        skolems.append((body.var, body.bound_type.name))
        body = body.body
    sk_names = {v for v, _ in skolems}
    disjuncts = tuple(
        tuple(_classify_literal(prop, neg, sk_names) for prop, neg in d)
        for d in _dnf(_nnf(body, False)))
    return SkolemClause(tuple(skolems), disjuncts)


def _nnf(p: T.Prop, neg: bool):
    """Negation normal form as a tag tree with (prop, negated) leaves."""
    if isinstance(p, T.Not):
        return _nnf(p.body, not neg)
    if isinstance(p, T.And):
        return ("or" if neg else "and", _nnf(p.left, neg), _nnf(p.right, neg))
    if isinstance(p, T.Or):
        return ("and" if neg else "or", _nnf(p.left, neg), _nnf(p.right, neg))
    if isinstance(p, T.TrueProp):
        return ("false",) if neg else ("true",)
    if isinstance(p, T.FalseProp):
        return ("true",) if neg else ("false",)
    if isinstance(p, T.Exists):
        raise UnsupportedPropError(
            "existential quantifiers are only supported as a prefix")
    if isinstance(p, (T.BuiltinPred, T.InSequence)):
        return ("lit", p, neg)
    raise UnsupportedPropError(f"unsupported proposition {type(p).__name__}")


# The most disjuncts a proposition may have in normal form.  Each "or"
# under an "and" multiplies them, so a short proposition can have millions;
# the benchmark's classes have at most 2.  Every disjunct is solved on its
# own on each find_members: at 1,024, compiling takes about 20 ms and each
# find_members about 50 ms for the class even when nothing joins, and both
# double with every further "or" conjunct.
MAX_DISJUNCTS = 1024


def _dnf(tree) -> list[list[tuple[T.Prop, bool]]]:
    tag = tree[0]
    if tag == "true":
        return [[]]
    if tag == "false":
        return []
    if tag == "lit":
        return [[(tree[1], tree[2])]]
    left, right = _dnf(tree[1]), _dnf(tree[2])
    size = len(left) * len(right) if tag == "and" else len(left) + len(right)
    if size > MAX_DISJUNCTS:
        raise UnsupportedPropError(
            f"proposition has more than {MAX_DISJUNCTS} disjuncts in "
            f"disjunctive normal form")
    if tag == "and":
        return [l + r for l in left for r in right]
    return left + right


def _classify_literal(prop: T.Prop, neg: bool, skolems: set[str]):
    if isinstance(prop, T.BuiltinPred) and prop.op is T.PredOp.EQ and not neg:
        a, b = prop.args
        if isinstance(b, T.Var) and b.name in skolems:
            return EqLit(a, b.name)
        if isinstance(a, T.Var) and a.name in skolems:
            return EqLit(b, a.name)
    return CheckLit(neg, prop)
