"""Embedded persistent term store.

One directory holds five kinds of append-only S-expression logs, one record
per line:

  catalog.fsx        (class "name" <type>) | (same-as "a" "b") | (is-a "a" "b")
                     | (watermark "class" N ((dep M) ...))    [latest wins]
  untyped.fsx        (term "name" <term>) | (promote "name")
  typed.fsx          (term "name" <term>)                     [line = typed id]
  class_<name>.fsx   (member "mname" <term>)
  adjacency.fsx      (adj "name" ("ref" ...))

Writes go to open append handles, except catalog records, which are held in
memory: commit() flushes and fsyncs every dirty file and only then appends
and fsyncs the held catalog records (a batch boundary).  A store constructed
without a path lives purely in memory and renders no records at all.  A
single lock file serializes writer sessions per directory.
"""

from __future__ import annotations

import os
import re
from collections import ChainMap
from dataclasses import dataclass, field
from typing import Container

from .errors import (AliasCycleError, DuplicateNameError, StoreCorruptionError,
                     StoreError)
from .sexp import build_value, quote_string, read_node, render_sexp
from .taxonomy import Concept, Taxonomy, mk_concept
from .typecheck import infer_static_type, resolve_type
from . import terms as T

_CLASS_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")

CATALOG = "catalog.fsx"
UNTYPED = "untyped.fsx"
TYPED = "typed.fsx"
ADJACENCY = "adjacency.fsx"
LOCK = "lock"


def class_file(name: str) -> str:
    return f"class_{name}.fsx"


@dataclass
class KbClass:
    name: str
    definition: T.Type
    members: list[tuple[str, T.Term]] = field(default_factory=list)
    member_names: set[str] = field(default_factory=set)
    member_terms: set[T.Term] = field(default_factory=set)
    name_of_term: dict[T.Term, str] = field(default_factory=dict)
    by_name: dict[str, int] = field(default_factory=dict)  # name -> member index
    watermark: int = 0                 # last typed id scanned (static classes)
    dep_marks: dict[str, int] = field(default_factory=dict)  # subset classes

    @property
    def is_subset(self) -> bool:
        return isinstance(self.definition, T.SubsetTy)

    def _index(self, mname: str, t: T.Term):
        self.by_name[mname] = len(self.members)
        self.members.append((mname, t))
        self.member_names.add(mname)
        self.member_terms.add(t)
        self.name_of_term.setdefault(t, mname)


class Store:
    def __init__(self, path: str | None = None, lock: bool = True):
        self.path = path
        self.tax = Taxonomy()
        self.untyped: dict[str, T.Term] = {}
        self.typed: dict[str, tuple[int, T.Term]] = {}
        self.typed_list: list[tuple[str, T.Term]] = []
        self.classes: dict[str, KbClass] = {}
        self.contains_map: dict[str, set[str]] = {}
        self.contained_by_map: dict[str, set[str]] = {}
        self._type_memo: dict[str, T.Type | None] = {}
        self._handles: dict[str, object] = {}
        self._dirty: set[str] = set()
        self._catalog: list[str] = []     # catalog records held until commit
        self._locked = False
        if path is not None:
            os.makedirs(path, exist_ok=True)
            if lock:
                self._acquire_lock()
            self._replay()

    # -- locking and file plumbing --

    def _acquire_lock(self):
        lock_path = os.path.join(self.path, LOCK)
        try:
            fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise StoreError(
                f"store {self.path!r} is locked by another session") from None
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        self._locked = True

    def _handle(self, filename: str):
        if self.path is None:
            return None
        fh = self._handles.get(filename)
        if fh is None:
            fh = open(os.path.join(self.path, filename), "a", encoding="utf-8")
            self._handles[filename] = fh
        return fh

    def _log(self, filename: str, head: str, *args):
        """Append the record (head arg ...) to a log; an in-memory store
        skips it before rendering anything."""
        if self.path is None:
            return
        line = " ".join([head, *map(_field, args)])
        if filename == CATALOG:
            self._catalog.append(f"({line})\n")
        else:
            self._handle(filename).write(f"({line})\n")
            self._dirty.add(filename)

    def commit(self):
        """Flush and fsync every file written since the last commit, then
        write and fsync the held catalog records: no watermark may reach
        the disk before the terms and members it covers."""
        for filename in sorted(self._dirty):
            self._sync(filename)
        self._dirty.clear()
        if self._catalog:
            self._handle(CATALOG).write("".join(self._catalog))
            self._catalog.clear()
            self._sync(CATALOG)

    def _sync(self, filename: str):
        fh = self._handles[filename]
        fh.flush()
        os.fsync(fh.fileno())

    def close(self):
        self.commit()
        for fh in self._handles.values():
            fh.close()
        self._handles.clear()
        if self._locked:
            os.unlink(os.path.join(self.path, LOCK))
            self._locked = False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- taxonomy mutations (logged) --

    def same_as(self, a: str | Concept, b: str | Concept):
        a, b = _concept(a), _concept(b)
        self.tax.same_as(a, b)
        self._type_memo.clear()
        self._log(CATALOG, "same-as", a.name, b.name)

    def add_is_a(self, child: str | Concept, parent: str | Concept):
        child, parent = _concept(child), _concept(parent)
        self.tax.add_is_a(child, parent)
        self._type_memo.clear()
        self._log(CATALOG, "is-a", child.name, parent.name)

    # -- term collections --

    def abox_insert(self, name: str, t: T.Term):
        """Record a named term in the untyped collection."""
        if not name or not isinstance(name, str):
            raise StoreError("term name must be a nonempty string")
        if name in self.untyped or name in self.typed:
            raise DuplicateNameError(f"term {name!r} already bound")
        refs = T.alias_names(t)
        self._check_acyclic(name, refs)
        self.untyped[name] = t
        self._add_adjacency(name, refs)
        self._log(UNTYPED, "term", name, t)

    def _check_acyclic(self, name: str, refs: set[str]):
        # the new term may complete a cycle only through terms that already
        # reference `name` (forward references are allowed and recorded)
        seen = set()
        stack = list(refs)
        while stack:
            cur = stack.pop()
            if cur == name:
                raise AliasCycleError(
                    f"inserting {name!r} would create an alias cycle")
            if cur in seen:
                continue
            seen.add(cur)
            stack.extend(self.contains_map.get(cur, ()))

    def _add_adjacency(self, name: str, refs: set[str], log: bool = True):
        self.contains_map[name] = set(refs)
        for r in refs:
            self.contained_by_map.setdefault(r, set()).add(name)
        if log:
            self._log(ADJACENCY, "adj", name, sorted(refs))

    def promote(self, name: str):
        """Move an untyped term into the typed collection."""
        t = self.untyped.pop(name)
        self.typed[name] = (len(self.typed_list) + 1, t)
        self.typed_list.append((name, t))
        self._log(TYPED, "term", name, t)
        self._log(UNTYPED, "promote", name)

    def term_names(self) -> Container[str]:
        """Every stored term name, typed or untyped, as a live view."""
        return ChainMap(self.typed, self.untyped)

    def lookup(self, name: str) -> T.Term | None:
        if name in self.typed:
            return self.typed[name][1]
        return self.untyped.get(name)

    def type_of(self, name: str) -> T.Type | None:
        """Inferred type of a typed term; None for unknown or untyped names."""
        if name not in self.typed:
            return None
        if name not in self._type_memo:
            self._type_memo[name] = infer_static_type(
                self.typed[name][1], self.tax, self.type_of)
        return self._type_memo[name]

    # -- classes --

    def mk_kb_class(self, name: str, ty: T.Type):
        if not _CLASS_NAME.match(name or ""):
            raise StoreError(f"invalid class name {name!r}")
        if name in self.classes:
            raise DuplicateNameError(f"class {name!r} already defined")
        for ref in sorted(type_alias_names(ty)):
            if ref not in self.classes:
                raise StoreError(f"class {name!r} references unknown type {ref!r}")
        self.classes[name] = KbClass(name, ty)
        self._log(CATALOG, "class", name, ty)
        self._handle(class_file(name))  # create the member file eagerly

    def kb_class(self, name: str) -> KbClass:
        cls = self.classes.get(name)
        if cls is None:
            raise StoreError(f"unknown class {name!r}")
        return cls

    def resolve_class_type(self, name: str) -> T.Type:
        """The class's fully alias-expanded static member type."""
        return resolve_type(self.kb_class(name).definition, self._class_lookup)

    def _class_lookup(self, name: str) -> T.Type | None:
        cls = self.classes.get(name)
        return cls.definition if cls else None

    def add_member(self, class_name: str, member_name: str, t: T.Term) -> bool:
        """Insert a coerced member; returns False when already present."""
        cls = self.kb_class(class_name)
        if t in cls.member_terms:
            return False
        cls._index(member_name, t)
        self._log(class_file(class_name), "member", member_name, t)
        if member_name not in self.contains_map:
            self._add_adjacency(member_name, T.alias_names(t))
        return True

    def set_watermark(self, class_name: str, watermark: int,
                      dep_marks: dict[str, int] | None = None):
        cls = self.kb_class(class_name)
        cls.watermark = watermark
        cls.dep_marks = dict(dep_marks or {})
        self._log(CATALOG, "watermark", class_name, watermark,
                  sorted(cls.dep_marks.items()))

    # -- containment graph --

    def _known(self, name: str) -> bool:
        return name in self.contains_map or name in self.contained_by_map

    def contains(self, name: str) -> set[str]:
        if not self._known(name):
            raise StoreError(f"unknown term {name!r}")
        return set(self.contains_map.get(name, ()))

    def contained_by(self, name: str) -> set[str]:
        if not self._known(name):
            raise StoreError(f"unknown term {name!r}")
        return set(self.contained_by_map.get(name, ()))

    def nearest(self, k: int, name: str, class_name: str) -> set[str]:
        """Names within k undirected containment steps that are members of
        the class (the start counts when it is a member)."""
        if not self._known(name):
            raise StoreError(f"unknown term {name!r}")
        members = self.kb_class(class_name).member_names
        visited = {name}
        frontier = [name]
        for _ in range(k):
            nxt = []
            for cur in frontier:
                for peer in (self.contains_map.get(cur, set())
                             | self.contained_by_map.get(cur, set())):
                    if peer not in visited:
                        visited.add(peer)
                        nxt.append(peer)
            if not nxt:
                break
            frontier = nxt
        return visited & members

    # -- statistics --

    def stats(self) -> dict[str, int]:
        out = {
            "untyped": len(self.untyped),
            "typed": len(self.typed),
            "classes": len(self.classes),
        }
        for name, cls in self.classes.items():
            out[f"members.{name}"] = len(cls.members)
        return out

    # -- replay --

    def _replay(self):
        self._replay_catalog()
        self._replay_untyped()
        self._replay_typed()
        self._replay_adjacency()
        for name in self.classes:
            self._replay_class(name)

    def _lines(self, filename: str):
        full = os.path.join(self.path, filename)
        if not os.path.exists(full):
            return
        with open(full, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh.read().split("\n"), start=1):
                if line.strip():
                    yield lineno, line

    def _replay_node(self, filename: str, lineno: int, line: str):
        try:
            node = read_node(line)
        except Exception as exc:
            raise StoreCorruptionError(f"{filename}:{lineno}: {exc}") from exc
        if not isinstance(node, list) or not node or not isinstance(node[0], str):
            raise StoreCorruptionError(f"{filename}:{lineno}: not a record")
        return node

    def _replay_catalog(self):
        for lineno, line in self._lines(CATALOG):
            node = self._replay_node(CATALOG, lineno, line)
            head = str(node[0])
            try:
                if head == "same-as" and len(node) == 3:
                    self.tax.same_as(mk_concept(node[1]), mk_concept(node[2]))
                elif head == "is-a" and len(node) == 3:
                    self.tax.add_is_a(mk_concept(node[1]), mk_concept(node[2]))
                elif head == "class" and len(node) == 3:
                    self.classes[str(node[1])] = KbClass(str(node[1]),
                                                         build_value(node[2]))
                elif head == "watermark" and len(node) == 4:
                    cls = self.classes[str(node[1])]
                    cls.watermark = int(node[2])
                    cls.dep_marks = {str(d[0]): int(d[1]) for d in node[3]}
                else:
                    raise StoreCorruptionError(
                        f"{CATALOG}:{lineno}: unknown record {head!r}")
            except StoreCorruptionError:
                raise
            except Exception as exc:
                raise StoreCorruptionError(f"{CATALOG}:{lineno}: {exc}") from exc

    def _replay_untyped(self):
        for lineno, line in self._lines(UNTYPED):
            node = self._replay_node(UNTYPED, lineno, line)
            head = str(node[0])
            if head == "term" and len(node) == 3:
                self.untyped[str(node[1])] = _term_value(UNTYPED, lineno, node[2])
            elif head == "promote" and len(node) == 2:
                self.untyped.pop(str(node[1]), None)
            else:
                raise StoreCorruptionError(
                    f"{UNTYPED}:{lineno}: unknown record {head!r}")

    def _replay_typed(self):
        for lineno, line in self._lines(TYPED):
            node = self._replay_node(TYPED, lineno, line)
            if str(node[0]) != "term" or len(node) != 3:
                raise StoreCorruptionError(f"{TYPED}:{lineno}: unknown record")
            name = str(node[1])
            t = _term_value(TYPED, lineno, node[2])
            self.typed[name] = (len(self.typed_list) + 1, t)
            self.typed_list.append((name, t))

    def _replay_adjacency(self):
        for lineno, line in self._lines(ADJACENCY):
            node = self._replay_node(ADJACENCY, lineno, line)
            if str(node[0]) != "adj" or len(node) != 3 or not isinstance(node[2], list):
                raise StoreCorruptionError(f"{ADJACENCY}:{lineno}: unknown record")
            self._add_adjacency(str(node[1]), {str(r) for r in node[2]}, log=False)

    def _replay_class(self, name: str):
        filename = class_file(name)
        cls = self.classes[name]
        for lineno, line in self._lines(filename):
            node = self._replay_node(filename, lineno, line)
            if str(node[0]) != "member" or len(node) != 3:
                raise StoreCorruptionError(f"{filename}:{lineno}: unknown record")
            mname = str(node[1])
            t = _term_value(filename, lineno, node[2])
            cls._index(mname, t)

    def dump_state(self) -> str:
        """Canonical rendering of all in-memory state, for equality checks."""
        lines = []
        for name, t in sorted(self.untyped.items()):
            lines.append(f"untyped {name} {render_sexp(t)}")
        for name, t in self.typed_list:
            lines.append(f"typed {name} {render_sexp(t)}")
        for name in sorted(self.contains_map):
            refs = " ".join(sorted(self.contains_map[name]))
            lines.append(f"adj {name} [{refs}]")
        for name, cls in sorted(self.classes.items()):
            deps = " ".join(f"{k}={v}" for k, v in sorted(cls.dep_marks.items()))
            lines.append(f"class {name} wm={cls.watermark} deps=[{deps}] "
                         f"{render_sexp(cls.definition)}")
            for mname, t in cls.members:
                lines.append(f"member {name} {mname} {render_sexp(t)}")
        return "\n".join(lines) + "\n"


def _field(x) -> str:
    """One field of a log record: strings quoted, integers bare, sequences
    parenthesized, terms and types in their storage form."""
    if isinstance(x, str):
        return quote_string(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, (list, tuple)):
        return "(" + " ".join(map(_field, x)) + ")"
    return render_sexp(x)


def _concept(x: str | Concept) -> Concept:
    # checked before the taxonomy changes: a positional label has no name
    # to log, and label_match ignores relations on positions anyway
    c = x if isinstance(x, Concept) else mk_concept(x)
    if c.is_positional:
        raise StoreError(f"taxonomy edits take named concepts, got {c!r}")
    return c


def _term_value(filename: str, lineno: int, node) -> T.Term:
    try:
        value = build_value(node)
    except Exception as exc:
        raise StoreCorruptionError(f"{filename}:{lineno}: {exc}") from exc
    if not isinstance(value, T.Term):
        raise StoreCorruptionError(f"{filename}:{lineno}: not a term")
    return value


def type_alias_names(ty: T.Type) -> set[str]:
    """Names of every type alias mentioned anywhere inside ty."""
    out: set[str] = set()
    stack: list[object] = [ty]
    while stack:
        node = stack.pop()
        if isinstance(node, T.TyAlias):
            out.add(node.name)
        elif isinstance(node, T.ListTy):
            stack.append(node.elem)
        elif isinstance(node, T.RecordTy):
            stack.extend(f for _, f in node.fields)
        elif isinstance(node, T.SubsetTy):
            stack.extend((node.binding_type, node.prop))
        elif isinstance(node, T.Exists):
            stack.extend((node.bound_type, node.body))
        elif isinstance(node, (T.And, T.Or)):
            stack.extend((node.left, node.right))
        elif isinstance(node, T.Not):
            stack.append(node.body)
    return out
