"""Concept labels and the three relations the type system consults.

A taxonomy maintains a strict total order over concepts, an equivalence
relation (synonyms, e.g. ``dob`` ~ ``birth_date``) and an acyclic is-a
lattice (hyponym -> hypernym).  Record subtyping pairs field labels through
``label_match``, which consults all three.

Concepts are interned: there is one ``Concept`` per name or index, whether
it comes from ``mk_concept``, ``positional`` or the constructor, so identity
is equality and labels hash and compare in C.  A taxonomy memoises
``label_match`` and holds the memo of subtype proofs
(``typecheck.prove_subtype``) and the memo of record shapes
(``terms.record``); its mutators, ``same_as`` and ``add_is_a``, clear all
three when they change a relation, so every answer reflects the current
edges.
"""

from __future__ import annotations

from .errors import LatticeCycleError, TaxonomyError


class Concept:
    """An interned label: either a named concept or a positional one.

    The constructor is the intern table: ``Concept(name=...)`` and
    ``Concept(position=...)`` return the one instance for that name or
    index, so identity is equality and hashing is ``object``'s.  Named and
    positional concepts are disjoint, and a concept refuses assignment.
    """

    __slots__ = ("name", "position")

    def __new__(cls, name: str | None = None, position: int | None = None):
        if (name is None) == (position is None):
            raise TaxonomyError("concept is either named or positional")
        if position is None and (not isinstance(name, str) or not name):
            raise TaxonomyError("concept name must be a nonempty string")
        if position is not None and position < 0:
            raise TaxonomyError("positional concept index must be >= 0")
        table, key = (_NAMED, name) if position is None else (_POSITIONAL, position)
        c = table.get(key)
        if c is None:
            c = table[key] = object.__new__(cls)
            object.__setattr__(c, "name", name)
            object.__setattr__(c, "position", position)
        return c

    def __setattr__(self, *_):
        raise AttributeError("a concept is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild a concept through the intern table too
        return Concept, (self.name, self.position)

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


def mk_concept(name: str | Concept) -> Concept:
    """The concept named ``name``; a concept is returned as it is."""
    if isinstance(name, Concept):
        return name
    c = _NAMED.get(name) if isinstance(name, str) else None
    return c or Concept(name=name)


def positional(index: int) -> Concept:
    return _POSITIONAL.get(index) or Concept(position=index)


def compare(a: Concept, b: Concept) -> int:
    """Strict total order: -1, 0 or 1."""
    ka, kb = a.sort_key(), b.sort_key()
    return -1 if ka < kb else (0 if ka == kb else 1)


class Taxonomy:
    """Mutable relation store.

    Each synonym class's is-a edges are filed under its union-find root,
    so the keys of the edge table are the roots of the classes with edges.

    Mutations (``same_as``, ``add_is_a``) are expected to be serialized by
    the caller; the query methods only read the relations.  The mutators are
    the taxonomy epoch: each that changes a relation clears the
    ``label_match`` memo, the proof memo and the shape memo, which
    therefore grow with the distinct label pairs, (subtype, supertype)
    pairs and record label tuples met since the last such edit.
    """

    def __init__(self):
        self._parent: dict[Concept, Concept] = {}
        # synonym-class root -> the parents of the class's is-a edges
        self._isa: dict[Concept, set[Concept]] = {}
        self._match: dict[tuple[Concept, Concept], bool] = {}
        # (sub, sup) -> Proof or None, filled by typecheck.prove_subtype
        self.proofs: dict[tuple[object, object], object] = {}
        # a record's labels in source order -> its sorted (concept, source
        # index) pairs, filled by terms.record and terms.record_ty
        self.shapes: dict[tuple, tuple] = {}

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
        return self.find(a) is self.find(b)

    def same_as(self, a: Concept, b: Concept) -> bool:
        """Make a and b synonyms; False when they already were."""
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return False
        if compare(rb, ra) < 0:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if rb in self._isa:   # the merged class's edges go to the new root
            self._isa.setdefault(ra, set()).update(self._isa.pop(rb))
        self._forget()
        return True

    # -- is-a lattice --

    def add_is_a(self, child: Concept, parent: Concept) -> bool:
        """Add the edge child -> parent; False when ``label_leq`` already
        implied it, which leaves the relations as they were."""
        if self.label_leq(parent, child):
            raise LatticeCycleError(f"is-a edge {child!r} -> {parent!r} closes a cycle")
        if self.label_leq(child, parent):
            return False
        self._isa.setdefault(self.find(child), set()).add(parent)
        self._forget()
        return True

    def _forget(self) -> None:
        # every memoised answer may depend on the edge just added
        self._match.clear()
        self.proofs.clear()
        self.shapes.clear()

    def label_leq(self, sub: Concept, sup: Concept) -> bool:
        """Reflexive-transitive is-a reachability, stepping through synonyms."""
        target = self.find(sup)
        seen = {self.find(sub)}
        queue = [self.find(sub)]
        while queue:
            rep = queue.pop()
            if rep is target:
                return True
            for parent in self._isa.get(rep, ()):
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
            if sub_label is sup_label:
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
        for label in labels:
            if label.is_positional:
                table, key = positions, label
            else:
                table, key = roots, self.find(label)
            first = table.get(key)
            if first is not None:
                return first, label
            table[key] = label
            if key in self._isa:
                upward.append(label)
        for i, a in enumerate(upward):
            for b in upward[i + 1:]:
                if self.label_match(a, b) and self.label_match(b, a):
                    return a, b
        return None
