"""Static type inference, structural subtyping proofs, and coercions.

Inference produces only static types (never subset types).  Subtype proofs
are deterministic: supertype record fields are processed in label order and
each takes the first unconsumed subtype field that label-matches and proves
recursively.  A proof depends only on the two types and the taxonomy, so
``prove_subtype`` memoises its answers (failures included) in the
taxonomy's proof memo, which every taxonomy edit clears;
``prove_subtype_uncached`` is the recursive search behind it.  A coercion
replays a proof over a term: matched fields are renamed to the supertype's
labels, unmatched subtype fields are dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    """The type a field selection would produce on a term of type `base`.

    A positional selection on a predicate-application record type looks
    through the single named wrapper field into the argument record.
    """
    if label.is_positional and _pred_inner_ty(base) is not None:
        base = _pred_inner_ty(base)
    if not isinstance(base, T.RecordTy):
        return None
    for flabel, fty in base.fields:
        if tax.label_match(flabel, label):
            return fty
    return None


def _pred_inner_ty(ty: T.Type) -> T.RecordTy | None:
    if (isinstance(ty, T.RecordTy) and len(ty.fields) == 1
            and not ty.fields[0][0].is_positional
            and isinstance(ty.fields[0][1], T.RecordTy)):
        inner = ty.fields[0][1]
        if all(l == T.positional(i) for i, (l, _) in enumerate(inner.fields)):
            return inner
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
    if isinstance(ty, T.ListTy):
        return T.ListTy(resolve_type(ty.elem, lookup, _stack))
    if isinstance(ty, T.RecordTy):
        return T.RecordTy(tuple((l, resolve_type(f, lookup, _stack))
                                for l, f in ty.fields))
    return ty


# ---------------------------------------------------------------------------
# subtype proofs


class Proof:
    __slots__ = ()


@dataclass(frozen=True)
class NumLeaf(Proof):
    pass


@dataclass(frozen=True)
class StrLeaf(Proof):
    pass


@dataclass(frozen=True)
class VoidLeaf(Proof):
    pass


@dataclass(frozen=True)
class EnumLeaf(Proof):
    pass


@dataclass(frozen=True)
class ListNode(Proof):
    child: Proof


@dataclass(frozen=True)
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
        return VoidLeaf()
    if isinstance(sub, T.NumTy) and isinstance(sup, T.NumTy):
        return NumLeaf()
    if isinstance(sub, T.StrTy) and isinstance(sup, T.StrTy):
        return StrLeaf()
    if isinstance(sub, T.EnumTy) and isinstance(sup, T.EnumTy):
        included = all(any(tax.equiv(c, d) for d in sup.concepts)
                       for c in sub.concepts)
        return EnumLeaf() if included else None
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

    Enum inclusion and void leaves rewrite nothing, so they count.
    """
    if isinstance(proof, RecordNode):
        return (not proof.dropped
                and all(sup == sub and is_identity_shaped(child)
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
        by_label = dict(t.fields)
        out = []
        for sup_label, sub_label, child in proof.pairs:
            if sub_label not in by_label:
                raise CoercionDomainError(f"missing field {sub_label!r}")
            out.append((sup_label, _coerce(child, by_label[sub_label])))
        return T.Record(T.sort_fields(out))
    if isinstance(proof, ListNode):
        if not isinstance(t, T.List):
            raise CoercionDomainError(f"list coercion applied to {t!r}")
        return T.List(tuple(_coerce(proof.child, i) for i in t.items))
    if isinstance(proof, NumLeaf):
        if not isinstance(t, T.Num):
            raise CoercionDomainError(f"number expected, got {t!r}")
        return t
    if isinstance(proof, StrLeaf):
        if not isinstance(t, T.Str):
            raise CoercionDomainError(f"string expected, got {t!r}")
        return t
    if isinstance(proof, EnumLeaf):
        if not isinstance(t, T.Atom):
            raise CoercionDomainError(f"atom expected, got {t!r}")
        return t
    if isinstance(proof, VoidLeaf):
        raise CoercionDomainError(f"no term inhabits the void type: {t!r}")
    raise CoercionDomainError(f"unknown proof node {proof!r}")


# ---------------------------------------------------------------------------
# conformance checking (liberal where inference is strict)


def check_term(t: T.Term, ty: T.Type, tax: Taxonomy,
               resolve: Resolve | None = None) -> bool:
    """Does t conform to static type ty, field labels taken literally?

    Checking is more liberal than inference: Bottom conforms to any type,
    an empty list conforms to any list type, and an alias conforms when the
    type of its referent is provably a subtype of the required type.
    """
    if isinstance(t, T.Bottom):
        return True
    if isinstance(t, T.TermAlias):
        target = resolve(t.name) if resolve is not None else None
        if target is None:
            return False
        if isinstance(ty, (T.SubsetTy, T.TyAlias)):
            return False
        return prove_subtype(target, ty, tax) is not None
    if isinstance(ty, T.NumTy):
        return isinstance(t, T.Num)
    if isinstance(ty, T.StrTy):
        return isinstance(t, T.Str)
    if isinstance(ty, T.EnumTy):
        return (isinstance(t, T.Atom)
                and any(tax.equiv(t.concept, c) for c in ty.concepts))
    if isinstance(ty, T.ListTy):
        return (isinstance(t, T.List)
                and all(check_term(i, ty.elem, tax, resolve) for i in t.items))
    if isinstance(ty, T.RecordTy):
        if not isinstance(t, T.Record):
            return False
        if tuple(l for l, _ in t.fields) != tuple(l for l, _ in ty.fields):
            return False
        return all(check_term(v, fty, tax, resolve)
                   for (_, v), (_, fty) in zip(t.fields, ty.fields))
    return False
