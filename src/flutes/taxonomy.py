"""Concept labels and the three relations the type system consults.

A taxonomy maintains a strict total order over concepts, an equivalence
relation (synonyms, e.g. ``dob`` ~ ``birth_date``) and an acyclic is-a
lattice (hyponym -> hypernym).  Record subtyping pairs field labels through
``label_match``, which consults all three.

Concepts are interned: ``mk_concept`` and ``positional`` hand out one shared
``Concept`` per name or index, and each concept computes its hash once.  A
taxonomy memoises ``label_match`` and holds the memo of subtype proofs
(``typecheck.prove_subtype``); its mutators, ``same_as`` and ``add_is_a``,
clear both, so every answer reflects the current edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import LatticeCycleError, TaxonomyError


@dataclass(frozen=True, eq=False)
class Concept:
    """An interned label: either a named concept or a positional one.

    Named and positional concepts are disjoint.  Equality is by value, so a
    concept built directly equals the interned one; interning makes the
    common case an identity test and a stored hash.
    """

    name: str | None = None
    position: int | None = None
    _hash: int = field(init=False, repr=False)

    def __post_init__(self):
        if (self.name is None) == (self.position is None):
            raise TaxonomyError("concept is either named or positional")
        object.__setattr__(self, "_hash", hash((self.name, self.position)))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Concept):
            return NotImplemented
        return self.name == other.name and self.position == other.position

    def __hash__(self):
        return self._hash

    @property
    def is_positional(self) -> bool:
        return self.position is not None

    def sort_key(self) -> tuple:
        # positional concepts order by index and precede all named ones;
        # named concepts order lexicographically
        if self.position is not None:
            return (0, self.position, "")
        return (1, 0, self.name)

    def __repr__(self):
        if self.position is not None:
            return f"Concept(pos {self.position})"
        return f"Concept({self.name})"


# The intern tables only grow, and an entry is determined by its key, so
# sharing them across stores and taxonomies cannot leak state between them.
_NAMED: dict[str, Concept] = {}
_POSITIONAL: dict[int, Concept] = {}


def mk_concept(name: str) -> Concept:
    if not isinstance(name, str) or not name:
        raise TaxonomyError("concept name must be a nonempty string")
    c = _NAMED.get(name)
    if c is None:
        c = _NAMED[name] = Concept(name=name)
    return c


def positional(index: int) -> Concept:
    if index < 0:
        raise TaxonomyError("positional concept index must be >= 0")
    c = _POSITIONAL.get(index)
    if c is None:
        c = _POSITIONAL[index] = Concept(position=index)
    return c


def compare(a: Concept, b: Concept) -> int:
    """Strict total order: -1, 0 or 1."""
    ka, kb = a.sort_key(), b.sort_key()
    return -1 if ka < kb else (0 if ka == kb else 1)


class Taxonomy:
    """Mutable relation store.

    Mutations (``same_as``, ``add_is_a``) are expected to be serialized by
    the caller; the query methods only read the relations.  The mutators are
    the taxonomy epoch: each clears the ``label_match`` memo and the proof
    memo, which therefore grow with the distinct label pairs and (subtype,
    supertype) pairs queried since the last edit.
    """

    def __init__(self):
        self._parent: dict[Concept, Concept] = {}
        self._members: dict[Concept, set[Concept]] = {}
        self._isa: dict[Concept, set[Concept]] = {}
        self._match: dict[tuple[Concept, Concept], bool] = {}
        # roots of the synonym classes with an outgoing is-a edge, built
        # on first use after an edit
        self._upward: set[Concept] | None = None
        # (sub, sup) -> Proof or None, filled by typecheck.prove_subtype
        self.proofs: dict[tuple[object, object], object] = {}

    # -- equivalence (union-find; the root is the least member, which makes
    # -- find() deterministic) --

    def find(self, c: Concept) -> Concept:
        root = c
        while root in self._parent:
            root = self._parent[root]
        while c in self._parent:
            nxt = self._parent[c]
            self._parent[c] = root
            c = nxt
        return root

    def equiv(self, a: Concept, b: Concept) -> bool:
        return self.find(a) == self.find(b)

    def same_as(self, a: Concept, b: Concept) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if compare(rb, ra) < 0:
            ra, rb = rb, ra
        self._parent[rb] = ra
        group = self._members.setdefault(ra, {ra})
        group.update(self._members.pop(rb, {rb}))
        self._forget()

    # -- is-a lattice --

    def add_is_a(self, child: Concept, parent: Concept) -> None:
        if self.label_leq(parent, child):
            raise LatticeCycleError(f"is-a edge {child!r} -> {parent!r} closes a cycle")
        self._isa.setdefault(child, set()).add(parent)
        self._forget()

    def _forget(self) -> None:
        # every memoised answer may depend on the edge just added
        self._match.clear()
        self.proofs.clear()
        self._upward = None

    def label_leq(self, sub: Concept, sup: Concept) -> bool:
        """Reflexive-transitive is-a reachability, stepping through synonyms."""
        target = self.find(sup)
        seen = {self.find(sub)}
        queue = [self.find(sub)]
        while queue:
            rep = queue.pop()
            if rep == target:
                return True
            for c in self._members.get(rep, {rep}):
                for parent in self._isa.get(c, ()):
                    prep = self.find(parent)
                    if prep not in seen:
                        seen.add(prep)
                        queue.append(prep)
        return False

    def label_match(self, sub_label: Concept, sup_label: Concept) -> bool:
        """May a subtype field labeled ``sub_label`` serve a supertype field
        labeled ``sup_label``?  True on identity, synonymy, or when
        ``sub_label`` is a hyponym of ``sup_label``.

        Positional labels match only identical positions, regardless of any
        asserted relations.  Answers are memoised until the next edit.
        """
        key = (sub_label, sup_label)
        hit = self._match.get(key)
        if hit is None:
            if sub_label == sup_label:
                hit = True
            elif sub_label.is_positional or sup_label.is_positional:
                hit = False
            else:
                hit = self.label_leq(sub_label, sup_label)
            self._match[key] = hit
        return hit

    def mutual_pair(self, labels: list[Concept]) -> tuple[Concept, Concept] | None:
        """Two of the labels that ``label_match`` each other both ways, or
        None when there are none.

        Named labels that share a union-find root match mutually, and
        positional labels only when identical, so one pass over the roots
        finds those pairs.  Is-a edges can make labels with different roots
        mutual (``x`` is-a ``y`` is-a ``z`` with ``x`` ~ ``z``), but only
        when the synonym class of each has an outgoing is-a edge, so only
        such labels are then checked pairwise.
        """
        roots: dict[Concept, Concept] = {}      # root -> first named label
        positions: dict[Concept, Concept] = {}  # positional label -> itself
        upward: list[Concept] = []              # labels whose class has is-a edges
        if self._upward is None:
            self._upward = {self.find(c) for c in self._isa}
        for label in labels:
            if label.is_positional:
                table, key = positions, label
            else:
                table, key = roots, self.find(label)
            first = table.get(key)
            if first is not None:
                return first, label
            table[key] = label
            if key in self._upward:
                upward.append(label)
        for i, a in enumerate(upward):
            for b in upward[i + 1:]:
                if self.label_match(a, b) and self.label_match(b, a):
                    return a, b
        return None
