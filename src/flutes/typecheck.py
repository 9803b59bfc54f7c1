"""Static type inference, structural subtyping proofs, and coercions.

Inference produces only static types (never subset types), which are
interned, so equal types are one object.  Subtype proofs are complete and
deterministic: a record proof pairs every supertype field with its own
subtype field that label-matches and proves recursively whenever such a
pairing exists, and takes the first one with the fields of both types in
label order (`_pairing`).  A proof depends only on the subtype's field set
(one whose labels are not distinct concepts proves nothing), the supertype
and the taxonomy, so ``prove_subtype`` memoises its answers (failures
included) in the taxonomy's proof memo, which every taxonomy edit clears;
``prove_subtype_uncached`` is the search behind it.

Proofs are hash-consed like static types, and each proof's coercion is
compiled once, into a closure (`Coercer`), when ``prove_subtype`` or
``prove_subtype_uncached`` first finds the proof: matched fields are
renamed to the supertype's labels, unmatched subtype fields are dropped,
and a record or list in which nothing changes is returned as the same
object.  The closure reads a record's field at the position its label
has among the proof's subtype labels in label order, as every stored
record holds it, checking the label by identity, and looks up one found
elsewhere by label; it builds its output in the supertype's label order.
Aliases and bottoms pass through, and any other term outside the proof's
domain raises CoercionDomainError.  A coercion depends on its proof alone,
so a taxonomy edit that changes a proof reaches the coercion through the
new proof.  ``apply_coercion`` runs the compiled form; there is no proof
interpreter here (the tests keep one as the reference).
"""

from __future__ import annotations

from operator import is_
from typing import Callable, NamedTuple, Optional

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
        if base is None or type(t.label) is not Concept:
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


class Leaf(Proof, interned=True):
    admits: type | None   # the term class its coercion accepts; None: void


class ListNode(Proof, interned=True):
    child: Proof


class RecordNode(Proof, interned=True):
    # per supertype field: (sup_label, matched sub_label, child proof)
    pairs: tuple[tuple[Concept, Concept, Proof], ...]
    dropped: tuple[Concept, ...]   # in label order


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
    """``prove_subtype`` without the memo: searches for the proof anew, and
    compiles its coercion when the proof is new."""
    proof = _prove(sub, sup, tax)
    if proof is not None and proof not in _CODE:
        _CODE[proof] = _compile(proof)
    return proof


def _prove(sub: T.Type, sup: T.Type, tax: Taxonomy) -> Proof | None:
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
        child = _prove(sub.elem, sup.elem, tax)
        return ListNode(child) if child is not None else None
    if cls is T.RecordTy:
        fields = sub.fields
        if len({l for l, _ in fields if type(l) is Concept}) < len(fields):
            return None        # labels that are not distinct concepts
        fields = T.sort_fields(fields)   # sup's, a class type's, already are
        picks = _pairing(fields, sup.fields, tax)
        if picks is None:
            return None
        pairs = tuple((sup_label, fields[i][0], child)
                      for (sup_label, _), (i, child) in zip(sup.fields, picks))
        taken = {i for i, _ in picks}
        dropped = tuple(l for i, (l, _) in enumerate(fields) if i not in taken)
        return RecordNode(pairs, dropped)
    return None


def _pairing(sub_fields: tuple, sup_fields: tuple,
             tax: Taxonomy) -> list[tuple[int, Proof]] | None:
    """The canonical pairing of record fields: per supertype field, the
    index of the subtype field it takes and the child proof; None when no
    injective pairing proves every supertype field.  Both types' fields
    come in label order, each supertype field trying the subtype fields it
    may take in turn, and a field that finds none sends the search back to
    the field before it; so the answer is the first complete pairing in
    that order, which is first-fit's own whenever first-fit succeeds."""
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
                    _prove(sub_fty, sup_fty, tax)
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


# ---------------------------------------------------------------------------
# coercions


class Coercer(NamedTuple):
    """A proof's coercion, compiled: ``run(t)`` is t coerced to the
    supertype, and ``identity`` says that run returns every term of its
    domain itself, since the proof renames and drops no field anywhere."""
    run: Callable[[T.Term], T.Term]
    identity: bool


# every proof found so far -> its coercion.  A proof is interned, so a
# lookup hashes it by identity, and a coercion depends on its proof alone,
# so an entry never goes stale; the table grows by one entry per distinct
# proof, as the intern tables do
_CODE: dict[Proof, Coercer] = {}

_STOPS = frozenset((T.TermAlias, T.Bottom))   # conform to any type


def apply_coercion(proof: Proof, t: T.Term) -> T.Term:
    """The term t, coerced along a subtyping proof to the supertype; the
    proof is one that ``prove_subtype`` or ``prove_subtype_uncached``
    returned."""
    return _CODE[proof].run(t)


def coercer(proof: Proof) -> Coercer:
    """The compiled coercion of a proof that ``prove_subtype`` or
    ``prove_subtype_uncached`` returned."""
    return _CODE[proof]


def _compile(proof: Proof) -> Coercer:
    """The proof's coercion as a closure.  A record's field is read at the
    position of its label among the proof's subtype labels in label order,
    or else looked up by label, so any term of the domain is coerced, and
    one out of the domain raises CoercionDomainError.  Dispatch is on
    exact classes, as no node class has subclasses."""
    kind = type(proof)
    if kind is Leaf:
        admits = _admits(proof)

        def coerce_leaf(t):
            if type(t) in admits:
                return t
            raise CoercionDomainError(f"{proof!r} applied to {t!r}")

        return Coercer(coerce_leaf, True)
    if kind is ListNode:
        child = _compile(proof.child)
        run = child.run

        def coerce_list(t):
            if type(t) is not T.List:
                return _stop(t, "list")
            items = t.items
            out = tuple(map(run, items))
            return t if all(map(is_, out, items)) else T.List(out)

        return Coercer(coerce_list, child.identity)
    # the subtype's labels in label order: the layout of a stored record
    labels = sorted([l for _, l, _ in proof.pairs] + list(proof.dropped),
                    key=Concept.sort_key)
    at = {l: i for i, l in enumerate(labels)}
    # a record can stay itself only when no label is renamed
    keeps = all(sup_label is sub_label
                for sup_label, sub_label, _ in proof.pairs)
    identity = keeps and not proof.dropped
    # per supertype field, in its order: the subtype field's index and
    # label, the supertype label, and a leaf's term classes and proof, or
    # None and the child's coercion
    steps = []
    for sup_label, sub_label, child in proof.pairs:
        i = at[sub_label]
        if type(child) is Leaf:
            steps.append((i, sub_label, sup_label, _admits(child), child))
        else:
            code = _compile(child)
            identity = identity and code.identity
            steps.append((i, sub_label, sup_label, None, code.run))
    steps = tuple(steps)
    width = len(steps)

    def coerce_record(t):
        if type(t) is not T.Record:
            return _stop(t, "record")
        fields = t.fields
        if keeps and len(fields) == width:
            # t itself when each field is at its pair's place and no value
            # changes; otherwise the fields are read as below
            for (label, value), (_, sub_label, _, admits, code) in zip(fields, steps):
                if label is not sub_label:
                    break
                if admits is None:
                    if code(value) is not value:
                        break
                elif type(value) not in admits:
                    raise CoercionDomainError(f"{code!r} applied to {value!r}")
            else:
                return t
        out = []
        for i, sub_label, sup_label, admits, code in steps:
            label, value = fields[i] if i < len(fields) else (None, None)
            if label is not sub_label:
                value = _lookup(fields, sub_label)
            if admits is None:
                value = code(value)
            elif type(value) not in admits:
                raise CoercionDomainError(f"{code!r} applied to {value!r}")
            out.append((sup_label, value))
        return T.Record(tuple(out))

    return Coercer(coerce_record, identity)


def _admits(leaf: Leaf) -> frozenset:
    """The term classes a leaf's coercion returns unchanged."""
    return _STOPS if leaf.admits is None else _STOPS | {leaf.admits}


def _stop(t: T.Term, what: str) -> T.Term:
    """An alias or a bottom, which a coercion passes over (the referent is
    coerced where it lives); any other term is outside the domain."""
    if type(t) in _STOPS:
        return t
    raise CoercionDomainError(f"{what} coercion applied to {t!r}")


def _lookup(fields: tuple, label: Concept) -> T.Term:
    """The value of the label's last field (a record built outside the
    store may repeat a label)."""
    for l, value in reversed(fields):
        if l is label:
            return value
    raise CoercionDomainError(f"missing field {label!r}")
