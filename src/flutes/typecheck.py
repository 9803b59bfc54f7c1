"""Static type inference, structural subtyping proofs, and coercions.

Inference produces only static types (never subset types), which are
interned, so equal types are one object.  Subtype proofs are complete and
deterministic: a record proof pairs every supertype field with its own
subtype field that label-matches and proves recursively whenever such a
pairing exists, and takes the first one with supertype fields in label
order, each trying subtype fields in index order (`_pairing`).  A proof
depends only on the two types and the taxonomy, so ``prove_subtype``
memoises its answers (failures included) in the taxonomy's proof memo,
which every taxonomy edit clears; ``prove_subtype_uncached`` is the
recursive search behind it.  A coercion replays a proof over a term:
matched fields are renamed to the supertype's labels, unmatched subtype
fields are dropped, and a record or list in which nothing changes is
returned as the same object.
"""

from __future__ import annotations

import operator
from typing import Callable, Optional

from .errors import AliasCycleError, CoercionDomainError, TypeCheckError
from .taxonomy import Concept, Taxonomy
from . import terms as T

Resolve = Callable[[str], Optional[T.Type]]


# ---------------------------------------------------------------------------
# inference


def infer_static_type(t: T.Term, tax: Taxonomy,
                      resolve: Resolve | None = None) -> T.Type | None:
    """The static type of a term, or None when it has no type.

    `resolve` maps alias names to the types of the terms they refer to; an
    alias it cannot resolve makes the whole term untypeable.  A record's
    string and number fields are typed in place, with no call per field.
    """
    cls = type(t)
    if cls is T.Num:
        return T.num_ty
    if cls is T.Str:
        return T.str_ty
    if cls is T.Atom:
        return T.EnumTy((t.concept,))
    if cls is T.Record:
        fields = []
        for label, value in t.fields:
            vcls = type(value)
            if vcls is T.Str:
                fty = T.str_ty
            elif vcls is T.Num:
                fty = T.num_ty
            else:
                fty = infer_static_type(value, tax, resolve)
                if fty is None:
                    return None
            fields.append((label, fty))
        return T.RecordTy(tuple(fields))
    if cls is T.List:
        if not t.items:
            return None  # no element type to infer from
        elem = infer_static_type(t.items[0], tax, resolve)
        if elem is None:
            return None
        for item in t.items[1:]:
            if infer_static_type(item, tax, resolve) != elem:
                return None  # heterogeneous list
        return T.ListTy(elem)
    if cls is T.TermAlias:
        return resolve(t.name) if resolve is not None else None
    if cls is T.FieldSelection:
        base = infer_static_type(t.base, tax, resolve)
        if base is None:
            return None
        # the type of what selecting the label from a term of that type gives
        return T.select_field(base, t.label, tax)
    # Bottom carries no type of its own; Var is never typeable
    return None


# ---------------------------------------------------------------------------
# alias resolution


def resolve_type(ty: T.Type, lookup: Resolve,
                 _stack: tuple[str, ...] = ()) -> T.Type:
    """Expand every type alias; a subset-type target contributes its
    binding type (its members inhabit exactly that)."""
    if isinstance(ty, T.TyAlias):
        if ty.name in _stack:
            raise AliasCycleError(f"type alias cycle through {ty.name!r}")
        target = lookup(ty.name)
        if target is None:
            raise TypeCheckError(f"unknown type alias {ty.name!r}")
        return resolve_type(target, lookup, _stack + (ty.name,))
    if isinstance(ty, T.SubsetTy):
        return resolve_type(ty.binding_type, lookup, _stack)
    return T.map_parts(ty, lambda t: resolve_type(t, lookup, _stack))


# ---------------------------------------------------------------------------
# subtype proofs


class Proof(T.Value):
    pass


class Leaf(Proof):
    admits: type | None   # the term class its coercion accepts; None: void


class ListNode(Proof):
    child: Proof


class RecordNode(Proof):
    # per supertype field: (sup_label, matched sub_label, child proof)
    pairs: tuple[tuple[Concept, Concept, Proof], ...]
    dropped: tuple[Concept, ...]


_MISS = object()


def prove_subtype(sub: T.Type, sup: T.Type, tax: Taxonomy) -> Proof | None:
    """A proof that sub <= sup, or None.  Both types must be static.

    Answers come from the taxonomy's proof memo, keyed by the two types;
    static types are interned, so a lookup hashes and compares them by
    identity.
    """
    key = (sub, sup)
    proof = tax.proofs.get(key, _MISS)
    if proof is _MISS:
        proof = tax.proofs[key] = prove_subtype_uncached(sub, sup, tax)
    return proof


def prove_subtype_uncached(sub: T.Type, sup: T.Type,
                           tax: Taxonomy) -> Proof | None:
    """``prove_subtype`` without the memo: searches for the proof anew."""
    for ty in (sub, sup):
        if type(ty) is T.SubsetTy or type(ty) is T.TyAlias:
            raise TypeCheckError(f"prove_subtype needs static types, got {ty!r}")
    cls = type(sub)
    if cls is T.VoidTy:
        return Leaf(None)
    if cls is not type(sup):
        return None
    if cls is T.NumTy:
        return Leaf(T.Num)
    if cls is T.StrTy:
        return Leaf(T.Str)
    if cls is T.EnumTy:
        included = all(any(tax.equiv(c, d) for d in sup.concepts)
                       for c in sub.concepts)
        return Leaf(T.Atom) if included else None
    if cls is T.ListTy:
        child = prove_subtype_uncached(sub.elem, sup.elem, tax)
        return ListNode(child) if child is not None else None
    if cls is T.RecordTy:
        picks = _pairing(sub.fields, sup.fields, tax)
        if picks is None:
            return None
        pairs = tuple((sup_label, sub.fields[i][0], child)
                      for (sup_label, _), (i, child) in zip(sup.fields, picks))
        taken = {i for i, _ in picks}
        dropped = tuple(l for i, (l, _) in enumerate(sub.fields)
                        if i not in taken)
        return RecordNode(pairs, dropped)
    return None


def _pairing(sub_fields: tuple, sup_fields: tuple,
             tax: Taxonomy) -> list[tuple[int, Proof]] | None:
    """The canonical pairing of record fields: per supertype field, the
    index of the subtype field it takes and the child proof; None when no
    injective pairing proves every supertype field.  Supertype fields go in
    label order, each trying the subtype fields it may take in index
    order, and a field that finds none sends the search back to the field
    before it; so the answer is the first complete pairing in that order,
    which is first-fit's own whenever first-fit succeeds."""
    children: dict[tuple[int, int], Proof | None] = {}  # (sup index, sub index)
    picks: list[tuple[int, Proof]] = []
    taken: set[int] = set()

    def extend(j: int) -> bool:
        if j == len(sup_fields):
            return True
        sup_label, sup_fty = sup_fields[j]
        for i, (sub_label, sub_fty) in enumerate(sub_fields):
            if i in taken:
                continue
            child = children.get((j, i), _MISS)
            if child is _MISS:
                child = children[j, i] = (
                    prove_subtype_uncached(sub_fty, sup_fty, tax)
                    if tax.label_match(sub_label, sup_label) else None)
            if child is not None:
                taken.add(i)
                picks.append((i, child))
                if extend(j + 1):
                    return True
                taken.discard(i)
                picks.pop()
        return False

    return picks if extend(0) else None


def is_identity_shaped(proof: Proof) -> bool:
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


# ---------------------------------------------------------------------------
# coercions


def apply_coercion(proof: Proof, t: T.Term) -> T.Term:
    """The term t, coerced along a subtyping proof to the supertype."""
    return _coerce(proof, t)


def _coerce(proof: Proof, t: T.Term) -> T.Term:
    # aliases stay by-name (the referent is coerced where it lives) and an
    # unknown essential value conforms to anything; dispatch is on exact
    # classes, as no node class has subclasses
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
            new = _coerce(child, value)
            # unchanged: the field keeps its label, its place and its value
            same = (same and sup_label is sub_label is fields[i][0]
                    and new is value)
            out.append((sup_label, new))
        return t if same else T.Record(T.sort_fields(out))
    if kind is ListNode:
        if cls is not T.List:
            raise CoercionDomainError(f"list coercion applied to {t!r}")
        items = tuple(_coerce(proof.child, i) for i in t.items)
        return t if all(map(operator.is_, items, t.items)) else T.List(items)
    if kind is Leaf:
        if cls is proof.admits:   # None for void, which no term inhabits
            return t
        raise CoercionDomainError(f"{proof!r} applied to {t!r}")
    raise CoercionDomainError(f"unknown proof node {proof!r}")

