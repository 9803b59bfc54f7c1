"""Membership computation for knowledge-base classes.

Static classes (plain structural types) collect every stored typed term
whose inferred type is subsumed by the class type.  Subset classes (types
with a binding term and a proposition) are compiled into clauses: prefix
existentials become skolem slots tied to other classes, the matrix is
normalized to disjunctive normal form, and equalities against a skolem
variable become match literals, solved by matching the pattern one way
against candidate members.  Candidate scans are restricted by the
containment graph and by per-class watermarks, so re-runs only consider
tuples that involve at least one member added since the previous run.
"""

from dataclasses import dataclass, field
from time import perf_counter

from . import terms as T
from .errors import (ClassDependencyError, EvalError,
                     UnsupportedPropError)
from .rules import eval_term, member_name
from .store import Store, KbClass, type_alias_names
from .typecheck import apply_coercion, infer_static_type, prove_subtype


# -- compiled clause form ----------------------------------------------------

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


def _dnf(tree) -> list[list[tuple[T.Prop, bool]]]:
    tag = tree[0]
    if tag == "true":
        return [[]]
    if tag == "false":
        return []
    if tag == "lit":
        return [[(tree[1], tree[2])]]
    left, right = _dnf(tree[1]), _dnf(tree[2])
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


# -- class ordering and term promotion ---------------------------------------

def dependency_order(store: Store) -> list[str]:
    """Classes in an order that places every referenced class first;
    ties keep registration order."""
    deps = {name: sorted(type_alias_names(cls.definition))
            for name, cls in store.classes.items()}
    order: list[str] = []
    placed: set[str] = set()
    names = list(store.classes)
    while len(order) < len(names):
        progressed = False
        for name in names:
            if name in placed:
                continue
            if all(d in placed for d in deps[name]):
                order.append(name)
                placed.add(name)
                progressed = True
        if not progressed:
            stuck = ", ".join(n for n in names if n not in placed)
            raise ClassDependencyError(f"cyclic class dependencies: {stuck}")
    return order


def promote_untyped(store: Store) -> int:
    """Promote every untyped term that now infers a static type; repeated
    passes let chains of references resolve.  Returns the number promoted."""
    promoted = 0
    while True:
        gained = 0
        for name in list(store.untyped):
            t = store.untyped[name]
            if infer_static_type(t, store.tax, store.type_of) is not None:
                store.promote(name)
                gained += 1
        if gained == 0:
            return promoted
        promoted += gained


# -- ground proposition evaluation -------------------------------------------

def _norm(t: T.Term, store: Store) -> T.Term:
    """Resolve alias chains to stored terms for comparison purposes."""
    seen: set[str] = set()
    while isinstance(t, T.TermAlias) and t.name not in seen:
        seen.add(t.name)
        ref = store.lookup(t.name)
        if ref is None:
            break
        t = ref
    return t


def eval_ground_prop(p: T.Prop, store: Store) -> bool:
    """Truth of a variable-free proposition.  Comparison operands must
    evaluate to two numbers or two strings; equality and sequence
    membership compare structurally after resolving aliases."""
    if isinstance(p, T.TrueProp):
        return True
    if isinstance(p, T.FalseProp):
        return False
    if isinstance(p, T.BuiltinPred):
        a, b = (eval_term(x, store.lookup, store.tax) for x in p.args)
        if p.op is T.PredOp.EQ:
            return _norm(a, store) == _norm(b, store)
        if isinstance(a, T.Num) and isinstance(b, T.Num):
            x, y = a.value, b.value
        elif isinstance(a, T.Str) and isinstance(b, T.Str):
            x, y = a.value, b.value
        else:
            raise EvalError("comparison needs two numbers or two strings")
        if p.op is T.PredOp.LT:
            return x < y
        if p.op is T.PredOp.LE:
            return x <= y
        if p.op is T.PredOp.GT:
            return x > y
        return x >= y
    if isinstance(p, T.InSequence):
        item = _norm(eval_term(p.item, store.lookup, store.tax), store)
        return any(
            item == _norm(eval_term(i, store.lookup, store.tax), store)
            for i in p.items)
    raise EvalError(f"cannot evaluate proposition {type(p).__name__}")


# -- one-way matching ----------------------------------------------------------

def match(pattern: T.Term, ground: T.Term,
          subst: dict[str, T.Term]) -> dict[str, T.Term] | None:
    """Extend a ground substitution so that it maps the pattern onto a
    ground term, or None.

    Equal to ``unify(pattern, ground, subst)`` when `ground` and the values
    of `subst` hold no variable, as members and the bindings made from them
    never do (``Var`` is untypeable, and a term with free variables never
    becomes a member): only the pattern's variables bind, so there is no
    occurs check and nothing to expand.
    """
    s = dict(subst)
    return s if _match(pattern, ground, s) else None


def _match(pat: T.Term, t: T.Term, s: dict[str, T.Term]) -> bool:
    if isinstance(pat, T.Var):
        bound = s.get(pat.name)
        if bound is None:
            s[pat.name] = t
            return True
        return bound == t
    if type(pat) is not type(t):
        return False
    if isinstance(pat, T.Record):
        if len(pat.fields) != len(t.fields):
            return False
        return all(pl == tl and _match(pv, tv, s)
                   for (pl, pv), (tl, tv) in zip(pat.fields, t.fields))
    if isinstance(pat, T.List):
        if len(pat.items) != len(t.items):
            return False
        return all(_match(pi, ti, s) for pi, ti in zip(pat.items, t.items))
    if isinstance(pat, T.FieldSelection):
        return pat.label == t.label and _match(pat.base, t.base, s)
    return pat == t


# -- candidate pruning --------------------------------------------------------

def _pruned_indices(store: Store, kcls: KbClass, pattern: T.Term):
    """Member indices whose terms can embed every alias in the pattern,
    via the containment graph; None when the pattern fixes no aliases."""
    names = T.alias_names(pattern)
    if not names:
        return None
    linked: set[str] | None = None
    for n in sorted(names):
        holders = store.contained_by_map.get(n, set())
        linked = set(holders) if linked is None else linked & holders
        if not linked:
            return []
    return sorted(kcls.by_name[m] for m in linked if m in kcls.by_name)


# -- reports -------------------------------------------------------------------

@dataclass
class ClassStats:
    scanned: int = 0      # typed terms examined (static classes)
    candidates: int = 0   # candidate members examined (subset classes)
    tuples: int = 0       # complete assignments reaching the final check
    matched: int = 0      # members inserted
    elapsed: float = 0.0


@dataclass
class FindReport:
    promoted: int = 0
    order: list[str] = field(default_factory=list)
    per_class: dict[str, ClassStats] = field(default_factory=dict)
    elapsed: float = 0.0

    def lines(self, timings: bool = True) -> list[str]:
        out = [f"promoted\t{self.promoted}"]
        for name in self.order:
            st = self.per_class[name]
            out.append(f"class.{name}.scanned\t{st.scanned}")
            out.append(f"class.{name}.candidates\t{st.candidates}")
            out.append(f"class.{name}.tuples\t{st.tuples}")
            out.append(f"class.{name}.matched\t{st.matched}")
            if timings:
                out.append(f"class.{name}.elapsed\t{st.elapsed:.6f}")
        if timings:
            out.append(f"elapsed\t{self.elapsed:.6f}")
        return out


# -- disjunct evaluation --------------------------------------------------------

class _DisjunctRun:
    """Solves one disjunct of a subset class over fixed candidate windows.

    `windows[i]` is the half-open member-index range enumerable at equality
    literal i; enumeration of a window only happens when the literal's
    skolem is still unbound when the literal is reached.
    """

    def __init__(self, store: Store, clause: SkolemClause,
                 eq_lits, checks, windows, prune: bool,
                 binding: T.Term, bind_ty: T.Type, stats: ClassStats):
        self.store = store
        self.clause = clause
        self.cls_of = dict(clause.skolems)
        self.eq_lits = eq_lits
        self.checks = checks
        self.windows = windows
        self.prune = prune
        self.binding = binding
        self.bind_ty = bind_ty
        self.stats = stats

    def solve(self, order: list[int]) -> list[T.Term]:
        """Solve the equality literals in `order`, the first one enumerated
        over its window, testing each check once it is ground; returns
        coerced member terms."""
        out: list[T.Term] = []
        pending = self._eval_checks(self.checks, {})
        if pending is not None:
            self._descend(order, 0, {}, set(), pending, out)
        return out

    def candidates_at(self, pos: int, subst) -> list[tuple[str, T.Term]]:
        lit = self.eq_lits[pos]
        kcls = self.store.kb_class(self.cls_of[lit.skolem])
        lo, hi = self.windows[pos]
        if lo >= hi:
            return []
        if self.prune:
            idxs = _pruned_indices(self.store, kcls,
                                   T.substitute(subst, lit.pattern))
            if idxs is not None:
                return [kcls.members[i] for i in idxs if lo <= i < hi]
        return kcls.members[lo:hi]

    def _bind(self, lit: EqLit, mterm: T.Term, subst):
        # match the pattern, then bind (or check) the skolem itself
        s = match(lit.pattern, mterm, subst)
        if s is None or s.setdefault(lit.skolem, mterm) != mterm:
            return None
        return s

    def _eval_checks(self, checks, subst):
        """Evaluate every check that substitution made ground; returns the
        still-pending ones, or None when a ground check failed."""
        pending = []
        for c in checks:
            p = T.substitute_prop(subst, c.prop)
            if T.free_vars(p):
                pending.append(c)
                continue
            try:
                holds = eval_ground_prop(p, self.store)
            except EvalError:
                return None
            if holds == c.negated:
                return None
        return pending

    def _descend(self, order, k, subst, enum_bound, pending, out):
        if k == len(order):
            self._finish(subst, enum_bound, pending, out)
            return
        pos = order[k]
        lit = self.eq_lits[pos]
        cur = subst.get(lit.skolem, T.var(lit.skolem))
        if not isinstance(cur, T.Var):
            # bound by an earlier literal; just check consistency
            s = match(lit.pattern, cur, subst)
            if s is not None:
                nxt = self._eval_checks(pending, s)
                if nxt is not None:
                    self._descend(order, k + 1, s, enum_bound, nxt, out)
            return
        for _, mterm in self.candidates_at(pos, subst):
            self.stats.candidates += 1
            s = self._bind(lit, mterm, subst)
            if s is None:
                continue
            nxt = self._eval_checks(pending, s)
            if nxt is None:
                continue
            self._descend(order, k + 1, s, enum_bound | {lit.skolem}, nxt, out)

    def _member_of(self, class_name: str, value: T.Term) -> bool:
        kcls = self.store.kb_class(class_name)
        if isinstance(value, T.TermAlias) and value.name in kcls.by_name:
            return True
        return value in kcls.member_terms

    def _finish(self, subst, enum_bound, pending, out):
        if pending:        # some check never became ground
            return
        for var, cname in self.clause.skolems:
            if var in enum_bound:
                continue
            cur = subst.get(var, T.var(var))
            if isinstance(cur, T.Var):
                # untouched existential: any member will do
                if not self.store.kb_class(cname).members:
                    return
                continue
            if not self._member_of(cname, cur):
                return
        self.stats.tuples += 1
        mt = T.substitute(subst, self.binding)
        if T.free_vars(mt):
            return
        ty = infer_static_type(mt, self.store.tax, self.store.type_of)
        if ty is None:
            return
        proof = prove_subtype(ty, self.bind_ty, self.store.tax)
        if proof is None:
            return
        out.append(apply_coercion(proof, mt))


# -- the classifier --------------------------------------------------------------

def _run_static(store: Store, cls: KbClass, st: ClassStats):
    target = store.resolve_class_type(cls.name)
    for idx in range(cls.watermark, len(store.typed_list)):
        name, term = store.typed_list[idx]
        st.scanned += 1
        ty = store.type_of(name)
        if ty is None:
            continue
        proof = prove_subtype(ty, target, store.tax)
        if proof is None:
            continue
        if store.add_member(cls.name, name, apply_coercion(proof, term)):
            st.matched += 1
    _advance(store, cls, len(store.typed_list), cls.dep_marks)


def _run_subset(store: Store, cls: KbClass, clause: SkolemClause,
                prune: bool, st: ClassStats):
    bind_ty = store.resolve_class_type(cls.name)
    binding = cls.definition.binding_term
    cls_of = dict(clause.skolems)
    dep_names = sorted(set(cls_of.values()))
    sizes = {d: len(store.kb_class(d).members) for d in dep_names}
    marks = {d: cls.dep_marks.get(d, 0) for d in dep_names}
    produced: list[T.Term] = []

    for disjunct in clause.disjuncts:
        eq_lits = [l for l in disjunct if isinstance(l, EqLit)]
        checks = [l for l in disjunct if isinstance(l, CheckLit)]
        deps = [cls_of[lit.skolem] for lit in eq_lits]
        every = list(range(len(eq_lits)))
        if not eq_lits or any(marks[cls_of[v]] == 0 and sizes[cls_of[v]]
                              for v in _guards(clause, disjunct)):
            # one run over full windows: there is no literal to window, or a
            # guard class just gained its first member, which admits tuples
            # below the marks that earlier runs rejected
            runs = [(every, [(0, sizes[d]) for d in deps])]
        else:
            # semi-naive: the drive literal takes the members added since
            # the marks, the literals before it only older members
            runs = [([drive] + every[:drive] + every[drive + 1:],
                     [(marks[d], sizes[d]) if i == drive
                      else (0, marks[d] if i < drive else sizes[d])
                      for i, d in enumerate(deps)])
                    for drive in every]
        for order, windows in runs:
            run = _DisjunctRun(store, clause, eq_lits, checks, windows,
                               prune, binding, bind_ty, st)
            produced.extend(run.solve(order))

    for t in produced:
        if store.add_member(cls.name, member_name(cls.name, t), t):
            st.matched += 1
    _advance(store, cls, cls.watermark, sizes)


def _guards(clause: SkolemClause, disjunct) -> set[str]:
    """The disjunct's guard skolems: bound by no literal, so they only ask
    that their class be non-empty."""
    bound: set[str] = set()
    for lit in disjunct:
        if isinstance(lit, EqLit):
            bound |= {lit.skolem} | T.free_vars(lit.pattern)
        else:
            bound |= T.free_vars(lit.prop)
    return {v for v, _ in clause.skolems} - bound


def _advance(store: Store, cls: KbClass, watermark: int, dep_marks: dict[str, int]):
    # an unchanged watermark record would only lengthen the log
    if watermark != cls.watermark or dep_marks != cls.dep_marks:
        store.set_watermark(cls.name, watermark, dep_marks)


def find_members(store: Store, prune: bool = True) -> FindReport:
    """Promote newly typeable terms, then bring every class's member
    collection up to date, dependencies first."""
    t0 = perf_counter()
    order = dependency_order(store)
    clauses = {name: skolemize(store.kb_class(name).definition)
               for name in order if store.kb_class(name).is_subset}
    report = FindReport(order=order)
    report.promoted = promote_untyped(store)
    for name in order:
        cls = store.kb_class(name)
        st = ClassStats()
        report.per_class[name] = st
        t1 = perf_counter()
        if cls.is_subset:
            _run_subset(store, cls, clauses[name], prune, st)
        else:
            _run_static(store, cls, st)
        st.elapsed = perf_counter() - t1
    store.commit()
    report.elapsed = perf_counter() - t0
    return report
