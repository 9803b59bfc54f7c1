"""Reference interpreters for the compiled forms the program runs.

`substitute` walks a node and replaces its free variables, `eval_term`
walks a term and does its field selections, and `coerce` replays a
subtype proof over a term: the direct readings of what
`terms.substituter`, `clause.evaluator` and the coercions of
`typecheck` compile.  The tests compare the compiled forms against them.
"""

import operator

from flutes import terms as T
from flutes.clause import select
from flutes.errors import CoercionDomainError, EvalError, TermError
from flutes.typecheck import Leaf, ListNode, RecordNode


def substitute(s, node):
    """node with each free variable that s binds replaced by its value;
    a quantifier is refused, as `terms.substituter` refuses it."""
    cls = type(node)
    if cls is T.Var:
        return s.get(node.name, node)
    if cls is T.Exists:
        raise TermError(f"cannot substitute under the quantifier on {node.var!r}")
    return T.map_parts(node, lambda x: substitute(s, x))


def eval_term(t, store):
    """t with every field selection done, through the store's aliases; a
    variable is unbound."""
    if type(t) is T.FieldSelection:
        return select(eval_term(t.base, store), t.label, store)
    if type(t) is T.Var:
        raise EvalError(f"unbound variable {t.name!r}")
    return T.map_parts(t, lambda x: eval_term(x, store))


def coerce(proof, t):
    """t coerced along the proof: matched fields renamed to the
    supertype's labels, unmatched ones dropped, and a record or list in
    which nothing changes returned as the same object.  Aliases and
    bottoms pass through; a term outside the proof's domain raises
    CoercionDomainError."""
    cls, kind = type(t), type(proof)
    if cls is T.TermAlias or cls is T.Bottom:
        return t
    if kind is RecordNode:
        if cls is not T.Record:
            raise CoercionDomainError(f"record coercion applied to {t!r}")
        fields = t.fields
        by_label = dict(fields)
        out = []
        same = len(proof.pairs) == len(fields)   # no field dropped
        for i, (sup_label, sub_label, child) in enumerate(proof.pairs):
            if sub_label not in by_label:
                raise CoercionDomainError(f"missing field {sub_label!r}")
            value = by_label[sub_label]
            new = coerce(child, value)
            # unchanged: the field keeps its label, its place and its value
            same = (same and sup_label is sub_label is fields[i][0]
                    and new is value)
            out.append((sup_label, new))
        return t if same else T.Record(T.sort_fields(out))
    if kind is ListNode:
        if cls is not T.List:
            raise CoercionDomainError(f"list coercion applied to {t!r}")
        items = tuple(coerce(proof.child, i) for i in t.items)
        return t if all(map(operator.is_, items, t.items)) else T.List(items)
    if kind is Leaf:
        if cls is proof.admits:   # None for void, which no term inhabits
            return t
        raise CoercionDomainError(f"{proof!r} applied to {t!r}")
    raise CoercionDomainError(f"unknown proof node {proof!r}")


def is_identity_shaped(proof) -> bool:
    """True when the proof's coercion maps every conforming term to itself.

    Leaves rewrite nothing, so they count.
    """
    if type(proof) is RecordNode:
        return (not proof.dropped
                and all(sup is sub and is_identity_shaped(child)
                        for sup, sub, child in proof.pairs))
    if type(proof) is ListNode:
        return is_identity_shaped(proof.child)
    return True
