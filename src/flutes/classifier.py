"""Membership computation for knowledge-base classes.

Static classes (plain structural types) collect every stored typed term
whose inferred type is subsumed by the class type.  Subset classes (types
with a binding term and a proposition) are solved from the skolem clause
that the store compiled when the class was defined (see clause.py): match
literals are solved by matching the pattern one way against candidate
members of the skolem's class.  Candidate scans are restricted by each
class's alias index (the containment graph, per member) and by per-class
watermarks, so re-runs only consider tuples that involve at least one
member added since the previous run.
"""

from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter

from . import terms as T
from .clause import CheckLit, EqLit, SkolemClause
from .errors import ClassDependencyError, EvalError
from .rules import eval_term, member_name
from .store import Store, KbClass
from .typecheck import (apply_coercion, infer_static_type, is_identity_shaped,
                        prove_subtype)


# -- class ordering and term promotion ---------------------------------------

def dependency_order(store: Store) -> list[str]:
    """Classes in an order that places every referenced class first;
    ties keep registration order."""
    deps = {name: sorted(T.type_alias_names(cls.definition))
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

def _pruned(store: Store, kcls: KbClass, pattern: T.Term, lo: int, hi: int):
    """The members in the index window [lo, hi) whose terms can embed every
    alias in the pattern, via the containment graph, in index order; None
    when the pattern fixes no aliases."""
    names = T.alias_names(pattern)
    if not names:
        return None
    idxs = min((kcls.by_alias.get(n, ()) for n in names), key=len)
    members = kcls.members
    return [members[i] for i in idxs[bisect_left(idxs, lo):bisect_left(idxs, hi)]
            if len(names) == 1 or names <= store.contains_map[members[i][0]]]


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


# -- the binding term -------------------------------------------------------------

_MISS = object()


class _Binding:
    """A subset class's binding term, made into member terms during one run
    of the class.

    Within a run no term is promoted and the taxonomy does not change, so
    the substituted binding's type is a function of its shape: the types of
    the variables' values, and whether they all are aliases.  Each shape is
    proved against the class's member type once.  Its coercion is skipped
    when the proof is identity shaped, or when the values all are aliases
    and the coercion left the shape's first term unchanged: a coercion stops
    at aliases, so it then meets the same term every time.  A binding that
    selects a field is evaluated before it is typed, and keyed by the type
    of the evaluated term, since a selection can reach a typeable part of a
    value that has no type.
    """

    def __init__(self, store: Store, cls: KbClass):
        self.store = store
        self.term = cls.definition.binding_term
        self.ty = store.resolve_class_type(cls.name)
        self.vars = sorted(T.free_vars(self.term))
        self.selects = any(type(n) is T.FieldSelection
                           for n in T.nodes(self.term))
        self.proofs: dict = {}   # shape -> (proof, unchanged) or None

    def member(self, subst: dict[str, T.Term]) -> T.Term | None:
        """The coerced member term that a tuple yields, or None."""
        store = self.store
        if self.selects:
            try:
                mt = eval_term(T.substitute(subst, self.term),
                               store.lookup, store.tax)
            except EvalError:     # an unbound variable, or a failed selection
                return None
            shape = (False, infer_static_type(mt, store.tax, store.type_of))
        else:
            try:
                values = [subst[v] for v in self.vars]
            except KeyError:      # a variable that no literal bound
                return None
            mt = T.substitute(subst, self.term)
            aliases = all(type(v) is T.TermAlias for v in values)
            shape = (aliases, *map(self._type, values))
        hit = self.proofs.get(shape, _MISS)
        if hit is _MISS:
            hit = self.proofs[shape] = self._prove(mt, shape[0])
        if hit is None:
            return None
        proof, unchanged = hit
        return mt if unchanged else apply_coercion(proof, mt)

    def _prove(self, mt: T.Term, aliases: bool):
        """The proof for mt's shape and whether its coercion leaves the
        shape's terms unchanged, or None."""
        ty = infer_static_type(mt, self.store.tax, self.store.type_of)
        proof = None if ty is None else prove_subtype(ty, self.ty, self.store.tax)
        if proof is None:
            return None
        return proof, (is_identity_shaped(proof)
                       or aliases and apply_coercion(proof, mt) is mt)

    def _type(self, value: T.Term) -> T.Type | None:
        if type(value) is T.TermAlias:
            return self.store.type_of(value.name)
        return infer_static_type(value, self.store.tax, self.store.type_of)


# -- disjunct evaluation --------------------------------------------------------

class _DisjunctRun:
    """Solves one disjunct of a subset class over fixed candidate windows.

    `windows[i]` is the half-open member-index range enumerable at equality
    literal i; enumeration of a window only happens when the literal's
    skolem is still unbound when the literal is reached.
    """

    def __init__(self, store: Store, clause: SkolemClause,
                 eq_lits, checks, windows, prune: bool,
                 binding: _Binding, stats: ClassStats):
        self.store = store
        self.clause = clause
        self.cls_of = dict(clause.skolems)
        self.eq_lits = eq_lits
        self.checks = checks
        self.windows = windows
        self.prune = prune
        self.binding = binding
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
            pruned = _pruned(self.store, kcls, T.substitute(subst, lit.pattern),
                             lo, hi)
            if pruned is not None:
                return pruned
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
            p = T.substitute(subst, c.prop)
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
        mt = self.binding.member(subst)
        if mt is not None:
            out.append(mt)


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


def _run_subset(store: Store, cls: KbClass, prune: bool, st: ClassStats):
    clause = cls.clause
    binding = _Binding(store, cls)
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
                               prune, binding, st)
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
    report = FindReport(order=order)
    report.promoted = promote_untyped(store)
    for name in order:
        cls = store.kb_class(name)
        st = ClassStats()
        report.per_class[name] = st
        t1 = perf_counter()
        if cls.is_subset:
            _run_subset(store, cls, prune, st)
        else:
            _run_static(store, cls, st)
        st.elapsed = perf_counter() - t1
    store.commit()
    report.elapsed = perf_counter() - t0
    return report
