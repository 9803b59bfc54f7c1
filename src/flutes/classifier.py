"""Membership computation for knowledge-base classes.

Static classes (plain structural types) collect every stored typed term
whose inferred type is subsumed by the class type.  Subset classes (types
with a binding term and a proposition) run the join plans the store
compiled with the class, which `KbClass.clause` owns (see clause.py): per
run order, whether each step enumerates its skolem's class or matches a
bound value, the step's matcher, fixed to its pattern's shape and to the
variables bound there, and the check tests that become ground there.  A
run calls them per candidate on one substitution.  Candidate scans are
restricted by each class's alias index (the containment graph, per
member) and by per-class watermarks, so re-runs only consider tuples
that involve at least one member added since the previous run.

A tuple's member is the binding term with the tuple's values in place,
coerced to the class type.  `_Binding` compiles the binding when the
class is first judged; a member whose coercion is skipped takes its
storage form, which names it, from a template of the binding's filled
with the values', and its alias names from theirs, so the member term is
neither rendered nor walked.

A class's judgement (`judge`) is what applying its watermark record runs,
live and on replay (see store.py), so derived members are never logged.
"""

from __future__ import annotations

from bisect import bisect_left
from time import perf_counter
from typing import TYPE_CHECKING

from . import terms as T
from .clause import DisjunctPlans, Plan, Step, check_test
from .errors import EvalError, UnboundAliasError
from .rules import coerce_term, eval_term, member_name
from .sexp import render_sexp, template
from .typecheck import (apply_coercion, infer_static_type, is_identity_shaped,
                        prove_subtype)

if TYPE_CHECKING:   # the store imports this module to apply watermark records
    from .store import KbClass, Store


# -- term promotion ------------------------------------------------------------

def promote_untyped(store: Store) -> int:
    """Promote every untyped term that now infers a static type, and log the
    promotion as one (promote N) record, N the typed terms after it.
    Returns the number promoted."""
    promoted = promote_pass(store)
    if promoted:
        store._log("promote", len(store.typed_list))
    return promoted


def promote_pass(store: Store) -> int:
    """The promotion a (promote N) record stands for, live and on replay:
    untyped terms in insertion order, each typed once and handed to the
    store with its type; repeated passes let chains of references
    resolve.  Returns the number promoted."""
    promoted = 0
    while True:
        gained = 0
        for name in list(store.untyped):
            ty = infer_static_type(store.untyped[name], store.tax, store.type_of)
            if ty is not None:
                store._promote(name, ty)
                gained += 1
        if gained == 0:
            return promoted
        promoted += gained


# -- ground proposition evaluation -------------------------------------------

def eval_ground_prop(p: T.Prop, store: Store) -> bool:
    """Truth of a variable-free proposition: its compiled check test
    (`clause.check_test`) under the empty substitution.  Operands are
    compared as the terms that aliases name, and comparison operands must
    be two numbers or two strings.  An alias that is not stored raises
    UnboundAliasError, unless a sequence item already matches."""
    return check_test(p)({}, store)


# -- candidate pruning --------------------------------------------------------

def _pruned(store: Store, kcls: KbClass, names, lo: int, hi: int):
    """The members in the index window [lo, hi) whose terms can embed every
    alias in `names` (nonempty), via the containment graph, in index
    order."""
    idxs = min((kcls.by_alias.get(n, ()) for n in names), key=len)
    members, holds = kcls.members, store.contains_map
    return [members[i] for i in idxs[bisect_left(idxs, lo):bisect_left(idxs, hi)]
            if len(names) == 1 or names.issubset(holds[members[i][0]])]


# -- reports -------------------------------------------------------------------

class ClassStats:
    """One class's figures from one `find_members`: the typed terms examined
    (static classes), the candidate members examined and the complete
    assignments reaching the final check (subset classes), and the members
    inserted."""

    __slots__ = ("scanned", "candidates", "tuples", "matched", "elapsed")

    def __init__(self, scanned: int = 0, candidates: int = 0, tuples: int = 0,
                 matched: int = 0, elapsed: float = 0.0):
        self.scanned = scanned
        self.candidates = candidates
        self.tuples = tuples
        self.matched = matched
        self.elapsed = elapsed


class FindReport:
    __slots__ = ("promoted", "per_class", "elapsed")

    def __init__(self, promoted: int = 0,
                 per_class: dict[str, ClassStats] | None = None,
                 elapsed: float = 0.0):
        self.promoted = promoted
        self.per_class = {} if per_class is None else per_class
        self.elapsed = elapsed

    def lines(self, timings: bool = True) -> list[str]:
        out = [f"promoted\t{self.promoted}"]
        for name, st in self.per_class.items():   # in definition order
            for key in ("scanned", "candidates", "tuples", "matched"):
                out.append(f"class.{name}.{key}\t{getattr(st, key)}")
            if timings:
                out.append(f"class.{name}.elapsed\t{st.elapsed:.6f}")
        if timings:
            out.append(f"elapsed\t{self.elapsed:.6f}")
        return out


# -- the binding term -------------------------------------------------------------

_MISS = object()


class _Binding:
    """A subset class's binding term, made into member terms; the store
    keeps it in `KbClass.binding`, with its proof memo, until a taxonomy
    edit drops it.

    The substituted binding's type is a function of its shape: the types
    of the variables' values and whether they all are aliases.  Each shape
    is proved once, and remembered only once every alias in its term has a
    type (which it keeps until an edit): a term that has no type because an
    alias it names has none yet raises UnboundAliasError.  Its coercion is
    skipped when the proof is identity shaped, or when the values all are
    aliases and the coercion left the shape's first term unchanged: a
    coercion stops at aliases.  A binding that selects a field is evaluated
    before it is typed, and keyed by the evaluated term's type, since a
    selection can reach a typeable part of a value that has no type.

    Next to the memo, the binding is compiled into a builder of the
    substituted term, a template of its storage form and its own alias
    names (`storage`); a member that a coercion rewrote or a selection
    reached is rendered and walked whole.
    """

    def __init__(self, store: Store, cls: KbClass):
        self.term = cls.definition.binding_term
        self.ty = store.resolve_class_type(cls.name)
        self.vars = sorted(T.free_vars(self.term))
        self.selects = any(type(n) is T.FieldSelection
                           for n in T.nodes(self.term))
        self.build = T.substituter(self.term)
        self.render = template(self.term, self.vars)
        self.aliases = T.alias_names(self.term)
        self.proofs: dict = {}   # shape -> (proof, unchanged) or None

    def member(self, store: Store, subst: dict[str, T.Term]):
        """The coerced member term that a tuple yields, with its storage
        form and alias names, or None."""
        if self.selects:
            mt = eval_term(self.build(subst), store.lookup, store.tax)
            shape = (False, infer_static_type(mt, store.tax, store.type_of))
        else:
            try:
                values = [subst[v] for v in self.vars]
            except KeyError:      # a variable that no literal bound
                return None
            mt = self.build(subst)
            aliases = all(type(v) is T.TermAlias for v in values)
            shape = (aliases, *[store.type_of(v.name) if type(v) is T.TermAlias
                                else infer_static_type(v, store.tax, store.type_of)
                                for v in values])
        hit = self.proofs.get(shape, _MISS)
        if hit is _MISS:
            hit = self.proofs[shape] = self._prove(store, mt, shape[0])
        if hit is None:
            return None
        proof, unchanged = hit
        if unchanged and not self.selects:
            return mt, *self.storage(subst)
        mt = mt if unchanged else apply_coercion(proof, mt)
        return mt, render_sexp(mt), T.alias_names(mt)

    def storage(self, subst: dict[str, T.Term]) -> tuple[str, set[str]]:
        """The storage form and the alias names of the substituted binding,
        composed from the values': a member of a shape whose coercion is
        skipped is the substituted binding itself."""
        names = set(self.aliases)
        for v in self.vars:
            value = subst[v]
            if type(value) is T.TermAlias:
                names.add(value.name)
            else:
                names |= T.alias_names(value)
        return self.render(subst), names

    def _prove(self, store: Store, mt: T.Term, aliases: bool):
        """The proof for mt's shape and whether its coercion leaves the
        shape's terms unchanged, or None."""
        ty = infer_static_type(mt, store.tax, store.type_of)
        if ty is None:
            for name in sorted(T.alias_names(mt)):
                if store.type_of(name) is None:
                    raise UnboundAliasError(f"alias {name!r} has no type yet")
            return None
        proof = prove_subtype(ty, self.ty, store.tax)
        if proof is None:
            return None
        return proof, (is_identity_shaped(proof)
                       or aliases and apply_coercion(proof, mt) is mt)


# -- disjunct evaluation --------------------------------------------------------

class _DisjunctRun:
    """Solves one disjunct of a subset class along one compiled plan, over
    fixed candidate windows: `windows[i]` is the half-open member-index
    range that match literal i enumerates when its step enumerates."""

    def __init__(self, store: Store, plans: DisjunctPlans, plan: Plan,
                 windows, prune: bool, binding: _Binding, stats: ClassStats):
        self.store, self.plan, self.steps = store, plan, plan.steps
        self.windows, self.prune = windows, prune
        self.binding, self.stats = binding, stats
        self.kclasses = [store.kb_class(c) for c in plans.classes]
        self.members = [(v, store.kb_class(c)) for v, c in plan.members]
        # an ungroundable check or an empty guard class fails every tuple
        self.live = plan.grounds and all(store.kb_class(c).members
                                         for c in plans.guards)
        self.waits = False   # a tuple failed on an alias not yet stored or typed

    def solve(self) -> list[tuple[T.Term, str, set[str]]]:
        """The coerced member term of every tuple the plan finds, with its
        storage form and alias names.  One substitution serves the whole
        run: a step's matcher binds the variables its step binds over the
        values an earlier candidate left, and reads only those earlier
        steps bound, so no candidate copies it."""
        out: list[tuple[T.Term, str, set[str]]] = []
        subst: dict[str, T.Term] = {}
        if self._holds(self.plan.checks, subst):
            self._descend(0, subst, out)
        return out

    def _holds(self, checks, subst) -> bool:
        for c in checks:
            try:
                holds = c.test(subst, self.store)
            except EvalError as exc:
                self.waits |= isinstance(exc, UnboundAliasError)
                return False
            if holds == c.negated:
                return False
        return True

    def _candidates(self, step: Step, subst) -> list[tuple[str, T.Term]]:
        kcls = self.kclasses[step.lit]
        lo, hi = self.windows[step.lit]
        if self.prune and lo < hi:
            # the aliases of the pattern with the bound values in place
            names = step.aliases.union(*[T.alias_names(subst[v])
                                         for v in step.bound])
            if names:
                return _pruned(self.store, kcls, names, lo, hi)
        return kcls.members[lo:hi]

    def _descend(self, k: int, subst, out):
        if k == len(self.steps):
            self._finish(subst, out)
            return
        step = self.steps[k]
        match, checks = step.match, step.checks
        if not step.enumerates:
            # an earlier step bound the skolem; match its value
            if match(subst[step.skolem], subst) and self._holds(checks, subst):
                self._descend(k + 1, subst, out)
            return
        candidates = self._candidates(step, subst)
        self.stats.candidates += len(candidates)
        for _, mterm in candidates:
            if match(mterm, subst) and (not checks or self._holds(checks, subst)):
                self._descend(k + 1, subst, out)

    def _finish(self, subst, out):
        if not self.live:
            return
        for var, kcls in self.members:
            # a bound value is a member when it names one by alias, or holds
            # a member's term: a subset member is named by its content, and
            # a static member by its term's name, so its term is compared
            value = subst[var]
            if type(value) is T.TermAlias and value.name in kcls.by_name:
                continue
            if kcls.is_subset:
                named = member_name(kcls.name, render_sexp(value))
                if named not in kcls.by_name:
                    return
            elif not any(value == t for _, t in kcls.members):
                return
        self.stats.tuples += 1
        try:
            member = self.binding.member(self.store, subst)
        except EvalError as exc:   # a failed selection, or an alias not yet typed
            self.waits |= isinstance(exc, UnboundAliasError)
            return
        if member is not None:
            out.append(member)


# -- the judgement ---------------------------------------------------------------

def judge(store: Store, cls: KbClass, watermark: int, prune: bool = True,
          st: ClassStats | None = None) -> tuple[int, dict[str, int]]:
    """Run the judgement a watermark record of the class stands for, adding
    the members it derives unlogged; returns the record's figures: a static
    class's watermark, moved to `watermark`, and no marks, or a subset
    class's member count and marks, moved to its dependencies' sizes."""
    st = st or ClassStats()
    if cls.is_subset:
        _run_subset(store, cls, prune, st)
        return len(cls.members), cls.dep_marks or {}
    _run_static(store, cls, watermark, st)
    return cls.watermark, {}


def _run_static(store: Store, cls: KbClass, watermark: int, st: ClassStats):
    target = store.resolve_class_type(cls.name)
    size = len(cls.members)
    for name, term in store.typed_list[cls.watermark:watermark]:
        if name in cls.by_name:   # judged before an edit rewound the class,
            continue              # or a version-1 member record
        ty = store.type_of(name)
        proof = None if ty is None else prove_subtype(ty, target, store.tax)
        coerced = None if proof is None else coerce_term(store, proof, term)
        if coerced is not None:
            store._put_member(cls.name, name, coerced)
    st.scanned, st.matched = watermark - cls.watermark, len(cls.members) - size
    cls.watermark = watermark


def _sizes(store: Store, cls: KbClass) -> dict[str, int]:
    return {c: len(store.kb_class(c).members) for _, c in cls.clause.skolems}


def _run_subset(store: Store, cls: KbClass, prune: bool, st: ClassStats):
    clause = cls.clause
    binding = cls.binding = cls.binding or _Binding(store, cls)
    sizes = _sizes(store, cls)
    marks = {d: (cls.dep_marks or {}).get(d, 0) for d in sizes}
    produced: list[tuple[T.Term, str, set[str]]] = []
    held = False

    for plans in clause.plans:
        deps = plans.classes
        if (not deps and cls.dep_marks is None
                or any(marks[c] == 0 and sizes[c] for c in plans.guards)):
            # one run over full windows: the disjunct has no literal to window
            # and is unsolved, or a guard class just gained its first member,
            # which admits tuples below the marks that earlier runs rejected
            runs = [(plans.drives[0], [(0, sizes[d]) for d in deps])]
        else:
            # semi-naive: the drive literal takes the members added since
            # the marks, the literals before it only older members; a drive
            # with no new members enumerates nothing, so it is not run
            runs = [(plan, [(marks[d], sizes[d]) if i == drive
                            else (0, marks[d] if i < drive else sizes[d])
                            for i, d in enumerate(deps)])
                    for drive, (dep, plan) in enumerate(zip(deps, plans.drives))
                    if marks[dep] < sizes[dep]]
        for plan, windows in runs:
            run = _DisjunctRun(store, plans, plan, windows, prune, binding, st)
            produced.extend(run.solve())
            held |= run.waits

    for t, text, names in produced:
        if store._put_member(cls.name, member_name(cls.name, text), t, names):
            st.matched += 1
    if not held:
        # marks move only past final verdicts: a tuple that failed on an
        # alias not yet stored or typed is judged again from the old marks
        cls.dep_marks = sizes


# -- the classifier --------------------------------------------------------------

def find_members(store: Store, prune: bool = True) -> FindReport:
    """Promote newly typeable terms, then judge every class that has
    something new to judge, in definition order: a class is defined after
    the classes it names."""
    t0 = perf_counter()
    report = FindReport(promote_untyped(store))
    for name, cls in store.classes.items():
        st = report.per_class[name] = ClassStats()
        t1 = perf_counter()
        if (cls.dep_marks != _sizes(store, cls) if cls.is_subset
                else cls.watermark < len(store.typed_list)):
            store.set_watermark(name, prune, st)
        st.elapsed = perf_counter() - t1
    store.commit()
    report.elapsed = perf_counter() - t0
    return report
