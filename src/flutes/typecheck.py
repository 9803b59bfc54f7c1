"""Static type inference, structural subtyping proofs, and coercions.

Inference produces only static types (never subset types).  Subtype proofs
are deterministic: supertype record fields are processed in label order and
each takes the first unconsumed subtype field that label-matches and proves
recursively.  A proof depends only on the two types and the taxonomy, so
``prove_subtype`` memoises its answers (failures included) in the
taxonomy's proof memo, which every taxonomy edit clears;
``prove_subtype_uncached`` is the recursive search behind it.  A coercion
replays a proof over a term: matched fields are renamed to the supertype's
labels, unmatched subtype fields are dropped, and a record or list in which
nothing changes is returned as the same object.
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
    alias it cannot resolve makes the whole term untypeable.
    """
    if isinstance(t, T.Num):
        return T.num_ty
    if isinstance(t, T.Str):
        return T.str_ty
    if isinstance(t, T.Atom):
        return T.EnumTy((t.concept,))
    if isinstance(t, T.Record):
        fields = []
        for label, value in t.fields:
            fty = infer_static_type(value, tax, resolve)
            if fty is None:
                return None
            fields.append((label, fty))
        return T.RecordTy(tuple(fields))
    if isinstance(t, T.List):
        if not t.items:
            return None  # no element type to infer from
        elem = infer_static_type(t.items[0], tax, resolve)
        if elem is None:
            return None
        for item in t.items[1:]:
            if infer_static_type(item, tax, resolve) != elem:
                return None  # heterogeneous list
        return T.ListTy(elem)
    if isinstance(t, T.TermAlias):
        return resolve(t.name) if resolve is not None else None
    if isinstance(t, T.FieldSelection):
        base = infer_static_type(t.base, tax, resolve)
        if base is None:
            return None
        return select_field_type(base, t.label, tax)
    # Bottom carries no type of its own; Var is never typeable
    return None


def select_field_type(base: T.Type, label: Concept,
                      tax: Taxonomy) -> T.Type | None:
    """The type a field selection would produce on a term of type `base`,
    by the rule that selects its value (`terms.select_field`)."""
    return T.select_field(base, label, tax)


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
    __slots__ = ()


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

    Answers come from the taxonomy's proof memo; with interned types (as
    ``Store.type_of`` and ``Store.resolve_class_type`` return them) a hit
    is an identity test.
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
        if isinstance(ty, (T.SubsetTy, T.TyAlias)):
            raise TypeCheckError(f"prove_subtype needs static types, got {ty!r}")
    if isinstance(sub, T.VoidTy):
        return Leaf(None)
    if isinstance(sub, T.NumTy) and isinstance(sup, T.NumTy):
        return Leaf(T.Num)
    if isinstance(sub, T.StrTy) and isinstance(sup, T.StrTy):
        return Leaf(T.Str)
    if isinstance(sub, T.EnumTy) and isinstance(sup, T.EnumTy):
        included = all(any(tax.equiv(c, d) for d in sup.concepts)
                       for c in sub.concepts)
        return Leaf(T.Atom) if included else None
    if isinstance(sub, T.ListTy) and isinstance(sup, T.ListTy):
        child = prove_subtype_uncached(sub.elem, sup.elem, tax)
        return ListNode(child) if child is not None else None
    if isinstance(sub, T.RecordTy) and isinstance(sup, T.RecordTy):
        pairs = []
        consumed: set[int] = set()
        for sup_label, sup_fty in sup.fields:
            hit = None
            for i, (sub_label, sub_fty) in enumerate(sub.fields):
                if i in consumed or not tax.label_match(sub_label, sup_label):
                    continue
                child = prove_subtype_uncached(sub_fty, sup_fty, tax)
                if child is not None:
                    hit = (sup_label, sub_label, child)
                    consumed.add(i)
                    break
            if hit is None:
                return None
            pairs.append(hit)
        dropped = tuple(l for i, (l, _) in enumerate(sub.fields)
                        if i not in consumed)
        return RecordNode(tuple(pairs), dropped)
    return None


def is_identity_shaped(proof: Proof) -> bool:
    """True when the proof's coercion maps every conforming term to itself.

    Leaves rewrite nothing, so they count.
    """
    if isinstance(proof, RecordNode):
        return (not proof.dropped
                and all(sup is sub and is_identity_shaped(child)
                        for sup, sub, child in proof.pairs))
    if isinstance(proof, ListNode):
        return is_identity_shaped(proof.child)
    return True


# ---------------------------------------------------------------------------
# coercions


def apply_coercion(proof: Proof, t: T.Term) -> T.Term:
    """The term t, coerced along a subtyping proof to the supertype."""
    return _coerce(proof, t)


def _coerce(proof: Proof, t: T.Term) -> T.Term:
    # aliases stay by-name (the referent is coerced where it lives) and an
    # unknown essential value conforms to anything
    if isinstance(t, (T.TermAlias, T.Bottom)):
        return t
    if isinstance(proof, RecordNode):
        if not isinstance(t, T.Record):
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
    if isinstance(proof, ListNode):
        if not isinstance(t, T.List):
            raise CoercionDomainError(f"list coercion applied to {t!r}")
        items = tuple(_coerce(proof.child, i) for i in t.items)
        return t if all(map(operator.is_, items, t.items)) else T.List(items)
    if isinstance(proof, Leaf):
        if isinstance(t, proof.admits or ()):   # no term inhabits void
            return t
        raise CoercionDomainError(f"{proof!r} applied to {t!r}")
    raise CoercionDomainError(f"unknown proof node {proof!r}")

