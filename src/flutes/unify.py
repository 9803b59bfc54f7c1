"""First-order syntactic unification over the term language.

Variables bind to terms; everything else is rigid.  Term aliases unify as
constants (equal iff the names are equal), records only unify when their
sorted label tuples are identical, and the occurs check rejects cyclic
bindings.  A successful result is a fully-applied substitution: no bound
variable appears in any binding's value.
"""

from __future__ import annotations

from . import terms as T


def unify(a: T.Term, b: T.Term,
          subst: dict[str, T.Term] | None = None) -> dict[str, T.Term] | None:
    """Most general unifier extending `subst`, or None."""
    bindings = dict(subst) if subst else {}
    if _unify(a, b, bindings):
        return _expand(bindings)
    return None


def _walk(t: T.Term, bindings: dict[str, T.Term]) -> T.Term:
    while isinstance(t, T.Var) and t.name in bindings:
        t = bindings[t.name]
    return t


def _occurs(name: str, t: T.Term, bindings: dict[str, T.Term]) -> bool:
    t = _walk(t, bindings)
    if isinstance(t, T.Var):
        return t.name == name
    return any(_occurs(name, part, bindings) for part in T.parts(t))


def _unify(a: T.Term, b: T.Term, bindings: dict[str, T.Term]) -> bool:
    a, b = _walk(a, bindings), _walk(b, bindings)
    if isinstance(a, T.Var) or isinstance(b, T.Var):
        if a == b:
            return True
        var, val = (a, b) if isinstance(a, T.Var) else (b, a)
        if _occurs(var.name, val, bindings):
            return False
        bindings[var.name] = val
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, (T.Num, T.Str, T.Atom, T.Bottom, T.TermAlias)):
        return a == b
    if isinstance(a, T.Record):
        if tuple(l for l, _ in a.fields) != tuple(l for l, _ in b.fields):
            return False
        return all(_unify(va, vb, bindings)
                   for (_, va), (_, vb) in zip(a.fields, b.fields))
    if isinstance(a, T.List):
        if len(a.items) != len(b.items):
            return False
        return all(_unify(ia, ib, bindings)
                   for ia, ib in zip(a.items, b.items))
    if isinstance(a, T.FieldSelection):
        return a.label is b.label and _unify(a.base, b.base, bindings)
    return False


def _expand(bindings: dict[str, T.Term]) -> dict[str, T.Term]:
    return {name: _deep_walk(value, bindings)
            for name, value in bindings.items()}


def _deep_walk(t: T.Term, bindings: dict[str, T.Term]) -> T.Term:
    return T.map_parts(_walk(t, bindings), lambda x: _deep_walk(x, bindings))
