"""Subset-type propositions compiled into skolem clauses.

Prefix existentials become skolem slots tied to other classes, the matrix
is put in negation normal form and distributed into disjuncts, and
equalities against a skolem variable become match literals.  Each
disjunct also gets its join plans: one per run order the classifier uses,
fixing for every step what is known from the order alone.  The store
compiles each subset class once, when it is defined or replayed, so a
class that cannot be compiled is refused before it is logged.

The plans run compiled: each step holds a matcher fixed to its pattern's
shape and to the variables the order has bound there (`matcher`), and
each check literal a test that reads its operands from the substitution
(`check_test`).  The classifier only calls them, per candidate.

Terms are evaluated here too, and only here: `evaluator` compiles a term
into a function of a substitution and the store that yields the term with
the values in place and every field selection done (`select`, through the
aliases `deref` follows).  Check operands, selecting bindings, lambda rule
bodies and coercion's fallback all evaluate this way (`evaluate` for a
term evaluated once).
"""

import operator
from typing import TYPE_CHECKING, Callable, Collection, NamedTuple

from . import terms as T
from .errors import EvalError, UnboundAliasError, UnsupportedPropError
from .taxonomy import Concept

if TYPE_CHECKING:   # the store compiles clauses
    from .store import Store

Subst = dict[str, T.Term]
Matcher = Callable[[T.Term, Subst], bool]
Test = Callable[[Subst, "Store"], bool]
Operand = Callable[[Subst, "Store"], T.Term]


# The compiled forms are named tuples: defining one when the module is
# imported costs about half a frozen dataclass, and building one less too.
class EqLit(NamedTuple):
    """pattern === skolem; solved by matching the pattern against candidate
    members of the skolem's class."""
    pattern: T.Term
    skolem: str


class CheckLit(NamedTuple):
    """A deferred test, evaluated once the substitution binds its
    variables."""
    negated: bool
    prop: T.Prop
    test: Test                  # check_test(prop)


class Step(NamedTuple):
    """One match literal of a run order."""
    lit: int                    # the literal's index among the match literals
    skolem: str
    enumerates: bool            # the skolem is still unbound: enumerate its class
    aliases: frozenset[str]     # the term aliases the pattern names itself
    bound: tuple[str, ...]      # the pattern's variables that earlier steps bound
    checks: tuple[CheckLit, ...]  # the checks that become ground at this step
    # matches the pattern against a member (binding the skolem to it when
    # the step enumerates) or against the skolem's value
    match: Matcher


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
    tests: dict[T.Prop, Test] = {}   # a literal recurs across disjuncts
    disjuncts = tuple(
        tuple(_classify_literal(prop, neg, sk_names, tests) for prop, neg in d)
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
        steps.append(Step(i, lit.skolem, enumerates,
                          frozenset(T.alias_names(lit.pattern)),
                          tuple(sorted(before)), grounded(),
                          _step_matcher(lit, before, enumerates)))
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


def _classify_literal(prop: T.Prop, neg: bool, skolems: set[str],
                      tests: dict[T.Prop, Test]):
    if isinstance(prop, T.BuiltinPred) and prop.op is T.PredOp.EQ and not neg:
        a, b = prop.args
        if isinstance(b, T.Var) and b.name in skolems:
            return EqLit(a, b.name)
        if isinstance(a, T.Var) and a.name in skolems:
            return EqLit(b, a.name)
    test = tests.get(prop)
    if test is None:
        test = tests[prop] = check_test(prop)
    return CheckLit(neg, prop, test)


# -- compiled matchers -----------------------------------------------------------

def matcher(pattern: T.Term, bound: Collection[str] = ()) -> Matcher:
    """One-way matching of `pattern` compiled for its shape.  The function
    extends a ground substitution, in place, so that it maps the pattern
    onto a ground term, and says whether one does (on False the
    substitution may hold some of the pattern's variables).  A variable in
    `bound`, or met earlier in the pattern (fields and items left to
    right), is compared with its value; any other is bound, over whatever
    the substitution held.  Records and lists match only their own arity,
    and labels are compared by identity (they are interned).

    Agrees with ``unify(pattern, t, s)`` when s binds exactly the pattern's
    variables in `bound` and neither t nor s's values hold a variable, as
    members and the bindings made from them never do (``Var`` is
    untypeable, and a term with free variables never becomes a member):
    only the pattern's variables bind, so there is no occurs check and
    nothing to expand.
    """
    return _matcher(pattern, set(bound))


def _step_matcher(lit: EqLit, bound: set[str], enumerates: bool) -> Matcher:
    match = matcher(lit.pattern, bound)
    if not enumerates:
        return match
    # the enumerated member is the skolem's value; the pattern may name it
    own = matcher(T.Var(lit.skolem), bound | T.free_vars(lit.pattern))
    return lambda t, s: match(t, s) and own(t, s)


def _matcher(pat: T.Term, seen: set[str]) -> Matcher:
    """The matcher of pat, given the variables `seen` bound before it;
    adds those pat binds, in the order it binds them."""
    cls = type(pat)
    if cls is T.Var:
        name = pat.name
        if name in seen:
            def compare(t, s):
                v = s[name]
                return v is t or v == t
            return compare
        seen.add(name)

        def bind(t, s):
            s[name] = t
            return True
        return bind
    if not T.free_vars(pat):
        return lambda t, s: t is pat or t == pat
    if cls is T.Record:
        return _record_matcher([l for l, _ in pat.fields],
                               [_matcher(v, seen) for _, v in pat.fields])
    if cls is T.List:
        parts = [_matcher(i, seen) for i in pat.items]
        n = len(parts)

        def list_(t, s):
            if type(t) is not T.List or len(t.items) != n:
                return False
            for m, i in zip(parts, t.items):
                if not m(i, s):
                    return False
            return True
        return list_
    # a field selection: the only other node that holds a term
    label, base = pat.label, _matcher(pat.base, seen)
    return lambda t, s: (type(t) is T.FieldSelection and t.label is label
                         and base(t.base, s))


def _record_matcher(labels: list[Concept], parts: list[Matcher]) -> Matcher:
    Record, n = T.Record, len(parts)
    if n == 1:
        (l0,), (m0,) = labels, parts

        def record1(t, s):
            if type(t) is not Record or len(t.fields) != 1:
                return False
            ((l, v),) = t.fields
            return l is l0 and m0(v, s)
        return record1
    if n == 2:
        (l0, l1), (m0, m1) = labels, parts

        def record2(t, s):
            if type(t) is not Record or len(t.fields) != 2:
                return False
            (a, x), (b, y) = t.fields
            return a is l0 and b is l1 and m0(x, s) and m1(y, s)
        return record2

    def record(t, s):
        if type(t) is not Record or len(t.fields) != n:
            return False
        for l, m, (tl, v) in zip(labels, parts, t.fields):
            if l is not tl or not m(v, s):
                return False
        return True
    return record


# -- compiled check tests ----------------------------------------------------------

_COMPARE = {T.PredOp.LT: operator.lt, T.PredOp.LE: operator.le,
            T.PredOp.GT: operator.gt, T.PredOp.GE: operator.ge}

# the leaves that evaluate to themselves (a Var raises instead)
_PLAIN = frozenset([T.TermAlias, T.Num, T.Str, T.Atom, T.Bottom])


def check_test(p: T.Prop) -> Test:
    """The truth of the proposition under a substitution, compiled: the
    test takes the substitution and the store and reads each operand's
    value straight from the substitution, as evaluating the proposition
    with the values substituted would.  Operands are compared as the terms
    that aliases name, and comparison operands must be two numbers or two
    strings.  An alias that is not stored raises UnboundAliasError, unless
    a sequence item already matches; a variable the substitution does not
    bind raises EvalError, as an unbound variable does."""
    if type(p) is T.TrueProp:
        return lambda s, store: True
    if type(p) is T.FalseProp:
        return lambda s, store: False
    if type(p) is T.BuiltinPred:
        a, b = _operand(p.args[0]), _operand(p.args[1])
        if p.op is T.PredOp.EQ:
            return lambda s, store: a(s, store) == b(s, store)
        compare = _COMPARE[p.op]

        def test(s, store):
            x, y = a(s, store), b(s, store)
            if type(x) is not type(y) or (type(x) is not T.Num
                                          and type(x) is not T.Str):
                raise EvalError("comparison needs two numbers or two strings")
            return compare(x.value, y.value)
        return test
    if type(p) is T.InSequence:
        item, items = _operand(p.item), [_operand(i) for i in p.items]

        def inseq(s, store):
            x, missing = item(s, store), None
            for value in items:
                try:
                    if x == value(s, store):
                        return True
                except UnboundAliasError as exc:
                    missing = exc
            if missing is not None:
                raise missing
            return False
        return inseq
    raise EvalError(f"cannot evaluate proposition {type(p).__name__}")


def _operand(x: T.Term) -> Operand:
    """An operand's value: the term x evaluates to with the substitution's
    values in place, dereferenced when it is an alias."""
    ev = evaluator(x)
    return lambda s, store: deref(ev(s, store), store)


# -- term evaluation ---------------------------------------------------------------

def evaluate(t: T.Term, store: "Store") -> T.Term:
    """t with every field selection in it done."""
    return evaluator(t)({}, store)


def evaluator(x: T.Term) -> Operand:
    """The evaluation of x with the substitution's values in place,
    compiled: aliases evaluate to themselves, and are dereferenced only
    where a selection looks inside one; a variable's value is evaluated
    in turn, and a variable the substitution does not bind raises
    EvalError.  Only the parts of x that hold a variable or a selection
    are rebuilt."""
    cls = type(x)
    if cls is T.Var:
        name, unbound = x.name, f"unbound variable {x.name!r}"

        def var(s, store):
            v = s.get(name)
            if v is None:
                raise EvalError(unbound)
            return v if type(v) in _PLAIN else evaluate(v, store)
        return var
    if cls is T.FieldSelection:
        base, label = evaluator(x.base), x.label
        return lambda s, store: select(base(s, store), label, store)
    if not any(type(n) is T.Var or type(n) is T.FieldSelection
               for n in T.nodes(x)):
        return lambda s, store: x      # it evaluates to itself
    parts = {id(p): evaluator(p) for p in T.parts(x)}
    return lambda s, store: T.map_parts(x, lambda p: parts[id(p)](s, store))


def select(base: T.Term, label: Concept, store: "Store") -> T.Term:
    """The part that `label` selects from the evaluated base, a record or
    an alias naming one."""
    base = deref(base, store)
    if type(base) is not T.Record:
        raise EvalError(f"selection from a non-record: {base!r}")
    value = T.select_field(base, label, store.tax)
    if value is None:
        raise EvalError(f"no argument {label.position}" if label.is_positional
                        else f"no field matching {label!r}")
    return value


def deref(t: T.Term, store: "Store") -> T.Term:
    """The term an alias chain names, or t itself when it is no alias; an
    alias that is not stored raises UnboundAliasError."""
    seen = set()
    while type(t) is T.TermAlias:
        if t.name in seen:
            raise EvalError(f"alias cycle at {t.name!r}")
        seen.add(t.name)
        target = store.lookup(t.name)
        if target is None:
            raise UnboundAliasError(f"unbound alias {t.name!r}")
        t = target
    return t
