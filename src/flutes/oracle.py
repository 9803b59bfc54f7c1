"""Reference implementation of class membership, for testing.

Computes every class extension from scratch by exhaustive search: no
watermarks, no containment pruning, no unification.  Equality literals
are solved by one-way structural matching against candidate members,
enumerated in full.  Members are named nodes: a static member takes its
term's name, a subset member its content name (``member_name``), and
equal terms under two names are two members.  A skolem's value is a
member when it names one by alias or equals one's term.  Shares only the
type-theoretic core (inference, subsumption, coercion) and ground
proposition evaluation with the production path, so the two can
meaningfully disagree.  Subsumption goes through
``prove_subtype_uncached``, never the taxonomy's proof memo, so a stale
memo cannot fool the engine and the oracle alike.
"""

from . import terms as T
from .classifier import eval_ground_prop
from .clause import evaluate
from .errors import EvalError, UnsupportedPropError
from .rules import coerce_term, member_name
from .sexp import render_sexp
from .store import Store, KbClass
from .typecheck import apply_coercion, infer_static_type, prove_subtype_uncached

Ext = dict[str, dict[str, T.Term]]


def oracle_members(store: Store) -> Ext:
    """Members per class, name -> term, computed by brute force.  Assumes
    untyped terms have already been promoted (run after find_members or
    promote_untyped)."""
    ext: Ext = {}
    for name, cls in store.classes.items():
        if cls.is_subset:
            ext[name] = _subset_ext(store, cls, ext)
        else:
            ext[name] = _static_ext(store, cls)
    return ext


def oracle_extensions(store: Store) -> dict[str, set[T.Term]]:
    """Member term sets per class, from `oracle_members`."""
    return {name: set(members.values())
            for name, members in oracle_members(store).items()}


def _static_ext(store: Store, cls: KbClass) -> dict[str, T.Term]:
    out = {}
    for name, term in store.typed_list:
        ty = store.type_of(name)
        if ty is None:
            continue
        proof = prove_subtype_uncached(ty, cls.ty, store.tax)
        if proof is None:
            continue
        coerced = coerce_term(store, proof, term)
        if coerced is not None:
            out[name] = coerced
    return out


def _strip_exists(p: T.Prop):
    skolems = []
    while isinstance(p, T.Exists):
        if not isinstance(p.bound_type, T.TyAlias):
            raise UnsupportedPropError(
                f"existential for {p.var!r} must be bound by a class name")
        skolems.append((p.var, p.bound_type.name))
        p = p.body
    return skolems, p


def _disjuncts(p: T.Prop, neg: bool) -> list[list[tuple[T.Prop, bool]]]:
    """Disjunctive normal form as lists of (proposition, negated) leaves."""
    if isinstance(p, T.Not):
        return _disjuncts(p.body, not neg)
    if isinstance(p, (T.And, T.Or)):
        conj = isinstance(p, T.And) != neg
        left, right = _disjuncts(p.left, neg), _disjuncts(p.right, neg)
        if conj:
            return [l + r for l in left for r in right]
        return left + right
    if isinstance(p, T.TrueProp):
        return [] if neg else [[]]
    if isinstance(p, T.FalseProp):
        return [[]] if neg else []
    if isinstance(p, T.Exists):
        raise UnsupportedPropError(
            "existential quantifiers are only supported as a prefix")
    return [[(p, neg)]]


def _match(pat: T.Term, t: T.Term, binds: dict) -> dict | None:
    """One-way structural match; binds any variable in pat."""
    if isinstance(pat, T.Var):
        if pat.name in binds:
            return binds if binds[pat.name] == t else None
        out = dict(binds)
        out[pat.name] = t
        return out
    if isinstance(pat, T.Record) and isinstance(t, T.Record):
        if (tuple(c for c, _ in pat.fields)
                != tuple(c for c, _ in t.fields)):
            return None
        for (_, pv), (_, tv) in zip(pat.fields, t.fields):
            binds = _match(pv, tv, binds)
            if binds is None:
                return None
        return binds
    if isinstance(pat, T.List) and isinstance(t, T.List):
        if len(pat.items) != len(t.items):
            return None
        for pv, tv in zip(pat.items, t.items):
            binds = _match(pv, tv, binds)
            if binds is None:
                return None
        return binds
    return binds if pat == t else None


def _denotes(value: T.Term, members: dict[str, T.Term]) -> bool:
    """Whether the value names or equals some member of the extension."""
    if isinstance(value, T.TermAlias) and value.name in members:
        return True
    return any(value == term for term in members.values())


def _subset_ext(store: Store, cls: KbClass, ext: Ext) -> dict[str, T.Term]:
    skolems, matrix = _strip_exists(cls.definition.prop)
    sk_class = dict(skolems)
    build = T.substituter(cls.definition.binding_term)
    out: dict[str, T.Term] = {}

    def produce(binds, skval):
        full = dict(binds)
        full.update(skval)
        for var, cname in skolems:
            if var in skval:
                if not _denotes(skval[var], ext[cname]):
                    return
            elif not ext[cname]:
                return
        mt = build(full)
        if T.free_vars(mt):
            return
        try:
            mt = evaluate(mt, store)   # field selections
        except EvalError:
            return
        ty = infer_static_type(mt, store.tax, store.type_of)
        if ty is None:
            return
        proof = prove_subtype_uncached(ty, cls.ty, store.tax)
        if proof is None:
            return
        coerced = apply_coercion(proof, mt)
        out.setdefault(member_name(cls.name, render_sexp(coerced)), coerced)

    def absorb(raw, binds, skval):
        """Split one-way match results into free bindings and skolem
        values, rejecting inconsistencies."""
        binds, skval = dict(binds), dict(skval)
        for k, v in raw.items():
            target = skval if k in sk_class else binds
            if k in target:
                if target[k] != v:
                    return None
            else:
                target[k] = v
        return binds, skval

    def check_all(checks, binds, skval):
        full = dict(binds)
        full.update(skval)
        for build_prop, negd in checks:
            p = build_prop(full)
            if T.free_vars(p):
                return False
            try:
                holds = eval_ground_prop(p, store)
            except EvalError:
                return False
            if holds == negd:
                return False
        return True

    def solve(eqs, idx, binds, skval, checks):
        if idx == len(eqs):
            if check_all(checks, binds, skval):
                produce(binds, skval)
            return
        build_pattern, sk = eqs[idx]
        if sk in skval:
            candidates = [skval[sk]]
        else:
            candidates = ext[sk_class[sk]].values()
        for m in candidates:
            raw = _match(build_pattern(binds), m, {})
            if raw is None:
                continue
            merged = absorb(raw, binds, skval)
            if merged is None:
                continue
            nbinds, nskval = merged
            nskval.setdefault(sk, m)
            solve(eqs, idx + 1, nbinds, nskval, checks)

    for disjunct in _disjuncts(matrix, False):
        eqs = []
        checks = []
        for prop, negd in disjunct:
            placed = False
            if (isinstance(prop, T.BuiltinPred)
                    and prop.op is T.PredOp.EQ and not negd):
                a, b = prop.args
                if isinstance(b, T.Var) and b.name in sk_class:
                    eqs.append((T.substituter(a), b.name))
                    placed = True
                elif isinstance(a, T.Var) and a.name in sk_class:
                    eqs.append((T.substituter(b), a.name))
                    placed = True
            if not placed:
                checks.append((T.substituter(prop), negd))
        solve(eqs, 0, {}, {}, checks)
    return out
