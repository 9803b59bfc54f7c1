"""Subset-type propositions compiled into skolem clauses.

Prefix existentials become skolem slots tied to other classes, the matrix
is put in negation normal form and distributed into disjuncts, and
equalities against a skolem variable become match literals.  Each
disjunct also gets its join plans: one per run order the classifier uses,
fixing for every step what is known from the order alone.  The store
compiles each subset class once, when it is defined or replayed, so a
class that cannot be compiled is refused before it is logged.
"""

from typing import NamedTuple

from . import terms as T
from .errors import UnsupportedPropError


# The compiled forms are named tuples: defining one when the module is
# imported costs about half a frozen dataclass, and building one less too.
class EqLit(NamedTuple):
    """pattern === skolem; solved by matching the pattern against candidate
    members of the skolem's class."""
    pattern: T.Term
    skolem: str


class CheckLit(NamedTuple):
    """A deferred test, evaluated once substitution makes it ground."""
    negated: bool
    prop: T.Prop


class Step(NamedTuple):
    """One match literal of a run order."""
    lit: int                    # the literal's index among the match literals
    pattern: T.Term
    skolem: str
    enumerates: bool            # the skolem is still unbound: enumerate its class
    aliases: frozenset[str]     # the term aliases the pattern names itself
    bound: tuple[str, ...]      # the pattern's variables that earlier steps bound
    checks: tuple[CheckLit, ...]  # the checks that become ground at this step


class Plan(NamedTuple):
    """One run order of a disjunct."""
    checks: tuple[CheckLit, ...]   # the checks that are ground before any step
    steps: tuple[Step, ...]
    members: tuple[tuple[str, str], ...]  # (skolem, class) bound, not enumerated
    grounds: bool                  # every check becomes ground


class DisjunctPlans(NamedTuple):
    classes: tuple[str, ...]    # the class of each match literal's skolem
    guards: tuple[str, ...]     # classes of the skolems no literal names
    # per drive literal: it first, then the others in order; the first is
    # also the full order, and the only one when there is no match literal
    drives: tuple[Plan, ...]


class SkolemClause(NamedTuple):
    skolems: tuple[tuple[str, str], ...]   # (variable, class name), outermost first
    disjuncts: tuple[tuple[object, ...], ...]
    plans: tuple[DisjunctPlans, ...]       # one per disjunct


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
    return SkolemClause(tuple(skolems), disjuncts,
                        tuple(_plans(skolems, d) for d in disjuncts))


def _plans(skolems: list[tuple[str, str]], disjunct) -> DisjunctPlans:
    cls_of = dict(skolems)
    lits = [l for l in disjunct if isinstance(l, EqLit)]
    checks = [(l, T.free_vars(l.prop)) for l in disjunct
              if isinstance(l, CheckLit)]
    names = [T.free_vars(l.pattern) | {l.skolem} for l in lits]
    named = set().union(*names, *(v for _, v in checks))
    every = list(range(len(lits)))
    orders = [[d, *every[:d], *every[d + 1:]] for d in every] or [[]]
    return DisjunctPlans(
        tuple(cls_of[l.skolem] for l in lits),
        tuple(c for v, c in skolems if v not in named),
        tuple(_plan(skolems, lits, names, checks, o) for o in orders))


def _plan(skolems, lits, names, checks, order: list[int]) -> Plan:
    """Which variables each step of a run order finds bound, and where
    each check becomes ground."""
    bound: set[str] = set()
    waiting = checks

    def grounded() -> tuple[CheckLit, ...]:
        nonlocal waiting
        now = tuple(c for c, v in waiting if v <= bound)
        waiting = [(c, v) for c, v in waiting if not v <= bound]
        return now

    start = grounded()
    steps = []
    for i in order:
        lit = lits[i]
        enumerates, before = lit.skolem not in bound, names[i] & bound
        bound |= names[i]
        steps.append(Step(i, lit.pattern, lit.skolem, enumerates,
                          frozenset(T.alias_names(lit.pattern)),
                          tuple(sorted(before)), grounded()))
    enumerated = {s.skolem for s in steps if s.enumerates}
    members = tuple((v, c) for v, c in skolems
                    if v in bound and v not in enumerated)
    return Plan(start, tuple(steps), members, not waiting)


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
