"""Embedded persistent term store.

A store directory holds one append-only S-expression log, `log.fsx`, one
record per line, in the order the changes were made:

  (flutes-log 1)                      format version, first record of the log
  (class "name" <type>) | (same-as "a" "b") | (is-a "a" "b")
  (term "name" <term>)                an untyped term
  (promote "name")                    typed ids follow promotion order
  (member "class" "mname" <term>)
  (watermark "class" N (("dep" M) ...))
  (commit N crc)                      ends a batch of N records

Mutations render their record into an in-memory batch; commit() appends
the batch and its marker, where crc is zlib.crc32 of the batch's bytes,
with one write and one fsync.  Replay applies a batch only once its marker
checks out, and derives adjacency from the term and member records.  A
batch that fails its marker is a torn tail when no valid marker follows it
(it is truncated and reported in `torn_tail`), and corruption otherwise.
It is also corruption when the marker checks out against the batch's last
records: a damaged marker then joined two committed batches.  A store
constructed without a path lives purely in memory and renders no records
at all.  An exclusive flock on the file `lock` serializes writer
sessions per directory.
"""

from __future__ import annotations

import fcntl
import os
import re
import zlib
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

LOG = "log.fsx"
LOCK = "lock"
_VERSION = "(flutes-log 1)\n"
_MARKER = re.compile(rb"\(commit ([1-9][0-9]*) ([0-9]+)\)\n")


@dataclass
class KbClass:
    name: str
    definition: T.Type
    members: list[tuple[str, T.Term]] = field(default_factory=list)
    by_name: dict[str, int] = field(default_factory=dict)  # name -> member index
    # term -> name of its first member; add_member keeps terms distinct
    member_terms: dict[T.Term, str] = field(default_factory=dict)
    watermark: int = 0                 # last typed id scanned (static classes)
    dep_marks: dict[str, int] = field(default_factory=dict)  # subset classes

    @property
    def is_subset(self) -> bool:
        return isinstance(self.definition, T.SubsetTy)

    def _index(self, mname: str, t: T.Term):
        self.by_name[mname] = len(self.members)
        self.members.append((mname, t))
        self.member_terms.setdefault(t, mname)


class Store:
    def __init__(self, path: str | None = None):
        self.path = path
        self.tax = Taxonomy()
        self.untyped: dict[str, T.Term] = {}
        self.typed: dict[str, T.Term] = {}
        self.typed_list: list[tuple[str, T.Term]] = []
        self.classes: dict[str, KbClass] = {}
        self.contains_map: dict[str, set[str]] = {}
        self.contained_by_map: dict[str, set[str]] = {}
        self._type_memo: dict[str, T.Type | None] = {}
        self._types: dict[T.Type, T.Type] = {}   # one instance per static type
        self._batch: list[str] = []       # records rendered since the last commit
        self._log_fd: int | None = None
        self._log_size = 0                # bytes of log.fsx up to the last marker
        self._lock_fd: int | None = None
        self.torn_tail: tuple[int, int] | None = None  # (bytes, records) dropped
        if path is not None:
            os.makedirs(path, exist_ok=True)
            self._acquire_lock()
            try:
                self._replay()
            except BaseException:
                self._release_lock()
                raise

    # -- locking and the log --

    def _acquire_lock(self):
        """Hold an exclusive flock on the lock file until close().  The
        kernel drops it when the holder dies, so a lock file left by a dead
        session does not block; the pid written into it only names the
        holder in the error.  The file is never unlinked: a session that
        opened it just before the unlink could then lock an orphaned inode
        while a third locks a new file."""
        fd = os.open(os.path.join(self.path, LOCK), os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            holder = os.read(fd, 32).decode("ascii", "replace")
            os.close(fd)
            raise StoreError(f"store {self.path!r} is locked by another session"
                             f" (pid {holder or '?'})") from None
        os.ftruncate(fd, 0)
        os.write(fd, str(os.getpid()).encode("ascii"))
        self._lock_fd = fd

    def _release_lock(self):
        if self._lock_fd is not None:
            os.close(self._lock_fd)   # closing the last descriptor unlocks
            self._lock_fd = None

    def _log(self, head: str, *args):
        """Add the record (head arg ...) to the current batch; an in-memory
        store skips it before rendering anything."""
        if self.path is None:
            return
        self._batch.append("(" + " ".join([head, *map(_field, args)]) + ")\n")

    def commit(self):
        """Append the batch and its (commit N crc) marker to the log with one
        write and one fsync.  Watermarks follow the members they cover in
        the same file, so no order between files has to be kept."""
        if not self._batch:
            return
        first = self._log_size == 0
        records = [_VERSION, *self._batch] if first else self._batch
        data = "".join(records).encode("utf-8")
        data += b"(commit %d %d)\n" % (len(records), zlib.crc32(data))
        if self._log_fd is None:
            self._log_fd = os.open(self._log_path(),
                                   os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(self._log_fd, view):]
            os.fsync(self._log_fd)
        except BaseException:
            # a batch that may be only partly on disk must not stay there
            # for the next batch's marker to turn into corruption
            os.ftruncate(self._log_fd, self._log_size)
            raise
        if first:
            _fsync_dir(self.path)   # the directory entry of a new log
        self._log_size += len(data)
        self._batch.clear()

    def _log_path(self) -> str:
        return os.path.join(self.path, LOG)

    def close(self):
        try:
            self.commit()
        finally:
            if self._log_fd is not None:
                os.close(self._log_fd)
                self._log_fd = None
            self._release_lock()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # -- taxonomy mutations (logged) --

    def same_as(self, a: str | Concept, b: str | Concept):
        a, b = _concept(a), _concept(b)
        self.tax.same_as(a, b)
        self._forget_types()
        self._log("same-as", a.name, b.name)

    def add_is_a(self, child: str | Concept, parent: str | Concept):
        child, parent = _concept(child), _concept(parent)
        self.tax.add_is_a(child, parent)
        self._forget_types()
        self._log("is-a", child.name, parent.name)

    def _forget_types(self):
        # field selections infer through label_match, so an edit may change
        # inferred types; the taxonomy has cleared its proof memo
        self._type_memo.clear()
        self._types.clear()

    def _intern(self, ty: T.Type) -> T.Type:
        """The shared instance equal to ty, so that proof-memo keys built
        from it hit by identity."""
        return self._types.setdefault(ty, ty)

    # -- term collections --

    def abox_insert(self, name: str, t: T.Term):
        """Record a named term in the untyped collection."""
        if not name or not isinstance(name, str):
            raise StoreError("term name must be a nonempty string")
        if name in self.untyped or name in self.typed:
            raise DuplicateNameError(f"term {name!r} already bound")
        refs = T.alias_names(t)
        self._check_acyclic(name, refs)
        self._put_term(name, t, refs)
        self._log("term", name, t)

    def _put_term(self, name: str, t: T.Term, refs: set[str]):
        self.untyped[name] = t
        self._add_adjacency(name, refs)

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

    def _add_adjacency(self, name: str, refs: set[str]):
        self.contains_map[name] = set(refs)
        for r in refs:
            self.contained_by_map.setdefault(r, set()).add(name)

    def promote(self, name: str):
        """Move an untyped term into the typed collection."""
        self._promote(name)
        self._log("promote", name)

    def _promote(self, name: str):
        t = self.untyped.pop(name)
        self.typed[name] = t
        self.typed_list.append((name, t))

    def term_names(self) -> Container[str]:
        """Every stored term name, typed or untyped, as a live view."""
        return ChainMap(self.typed, self.untyped)

    def lookup(self, name: str) -> T.Term | None:
        t = self.typed.get(name)
        return self.untyped.get(name) if t is None else t

    def type_of(self, name: str) -> T.Type | None:
        """Inferred type of a typed term, interned; None for unknown or
        untyped names."""
        if name not in self.typed:
            return None
        if name not in self._type_memo:
            ty = infer_static_type(self.typed[name], self.tax, self.type_of)
            self._type_memo[name] = None if ty is None else self._intern(ty)
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
        self._put_class(name, ty)
        self._log("class", name, ty)

    def _put_class(self, name: str, ty: T.Type):
        self.classes[name] = KbClass(name, ty)

    def kb_class(self, name: str) -> KbClass:
        cls = self.classes.get(name)
        if cls is None:
            raise StoreError(f"unknown class {name!r}")
        return cls

    def resolve_class_type(self, name: str) -> T.Type:
        """The class's fully alias-expanded static member type, interned."""
        return self._intern(resolve_type(self.kb_class(name).definition,
                                         self._class_lookup))

    def _class_lookup(self, name: str) -> T.Type | None:
        cls = self.classes.get(name)
        return cls.definition if cls else None

    def add_member(self, class_name: str, member_name: str, t: T.Term) -> bool:
        """Insert a coerced member; returns False when already present."""
        cls = self.kb_class(class_name)
        if t in cls.member_terms:
            return False
        self._put_member(class_name, member_name, t)
        self._log("member", class_name, member_name, t)
        return True

    def _put_member(self, class_name: str, member_name: str, t: T.Term):
        self.classes[class_name]._index(member_name, t)
        if member_name not in self.contains_map:
            self._add_adjacency(member_name, T.alias_names(t))

    def set_watermark(self, class_name: str, watermark: int,
                      dep_marks: dict[str, int] | None = None):
        self.kb_class(class_name)           # raises for an unknown class
        dep_marks = dict(dep_marks or {})
        self._put_watermark(class_name, watermark, dep_marks)
        self._log("watermark", class_name, watermark, sorted(dep_marks.items()))

    def _put_watermark(self, class_name: str, watermark: int,
                       dep_marks: dict[str, int]):
        cls = self.classes[class_name]
        cls.watermark = watermark
        cls.dep_marks = dep_marks

    # -- containment graph --

    def nearest(self, k: int, name: str, class_name: str) -> set[str]:
        """Names within k undirected containment steps that are members of
        the class (the start counts when it is a member)."""
        if name not in self.contains_map and name not in self.contained_by_map:
            raise StoreError(f"unknown term {name!r}")
        members = self.kb_class(class_name).by_name.keys()
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
        """Apply every batch whose marker checks out, streaming the log and
        holding one batch at a time; truncate a torn tail."""
        path = self._log_path()
        if not os.path.exists(path):
            old = sorted(f for f in os.listdir(self.path) if f.endswith(".fsx"))
            if old:
                raise StoreCorruptionError(
                    f"store {self.path!r} has the old one-file-per-collection "
                    f"layout ({', '.join(old)}) and no {LOG}; this version "
                    f"reads only {LOG}")
            return
        batch: list[tuple[int, bytes]] = []
        crc = good = size = good_line = lineno = 0
        failed: str | None = None   # the first batch since `good` that failed
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                size += len(raw)
                marker = _MARKER.fullmatch(raw)
                if marker is None:
                    batch.append((lineno, raw))
                    crc = zlib.crc32(raw, crc)
                    continue
                count, want = int(marker[1]), int(marker[2])
                if count == len(batch) and want == crc:
                    if failed is not None:
                        raise StoreCorruptionError(failed)
                    self._apply(batch, first=good == 0)
                    good, good_line = size, lineno
                else:
                    damaged = _damaged_marker(batch, count, want)
                    if damaged is not None:
                        raise StoreCorruptionError(
                            f"{LOG}:{damaged}: damaged commit marker before a "
                            f"committed batch")
                    if failed is None:
                        failed = self._diagnose(batch, lineno)
                batch, crc = [], 0
        if size > good:
            os.truncate(path, good)
            self.torn_tail = (size - good, lineno - good_line)
        self._log_size = good

    def _apply(self, batch: list[tuple[int, bytes]], first: bool):
        if first and batch[0][1] != _VERSION.encode():
            raise StoreCorruptionError(f"{LOG}:1: expected {_VERSION.strip()}")
        for lineno, raw in batch:
            try:
                fn, args = self._decode(raw)
                fn(*args)
            except Exception as exc:
                raise StoreCorruptionError(f"{LOG}:{lineno}: {exc}") from exc

    def _diagnose(self, batch: list[tuple[int, bytes]], marker_line: int) -> str:
        """The error for a batch that failed its marker: its first record
        that does not decode, else the marker itself."""
        for lineno, raw in batch:
            try:
                self._decode(raw)
            except Exception as exc:
                return f"{LOG}:{lineno}: {exc}"
        return (f"{LOG}:{marker_line}: record count or checksum does not "
                f"match the batch before it")

    def _decode(self, raw: bytes):
        """The method that replays one record, and its arguments."""
        node = read_node(raw.decode("utf-8"))
        if not isinstance(node, list) or not node or not isinstance(node[0], str):
            raise ValueError("not a record")
        head, args = node[0], node[1:]
        shape = (head, len(args))
        if shape == ("term", 2):
            t = _term_value(args[1])
            return self._put_term, (str(args[0]), t, T.alias_names(t))
        if shape == ("promote", 1):
            return self._promote, (str(args[0]),)
        if shape == ("member", 3):
            return self._put_member, (str(args[0]), str(args[1]),
                                      _term_value(args[2]))
        if shape == ("watermark", 3):
            return self._put_watermark, (
                str(args[0]), int(args[1]), {str(d[0]): int(d[1]) for d in args[2]})
        if shape == ("class", 2):
            return self._put_class, (str(args[0]), build_value(args[1]))
        if shape == ("same-as", 2):
            return self.tax.same_as, (mk_concept(args[0]), mk_concept(args[1]))
        if shape == ("is-a", 2):
            return self.tax.add_is_a, (mk_concept(args[0]), mk_concept(args[1]))
        if shape == ("flutes-log", 1) and args[0] == 1:
            return _nothing, ()
        raise ValueError(f"unknown record {head!r}")

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


def _damaged_marker(batch: list[tuple[int, bytes]], count: int,
                    crc: int) -> int | None:
    """The line of a damaged marker inside a batch whose own marker failed
    it but checks out against its last `count` records: the record before
    them, or the first of them when the damage hit a marker's newline and
    joined it to the next record.  A tear of the batch being written leaves
    no marker after it, so it cannot produce this."""
    start = len(batch) - count
    if start < 1:
        return None
    lineno, first = batch[start]
    rest = b"".join(raw for _, raw in batch[start + 1:])
    if zlib.crc32(rest, zlib.crc32(first)) == crc:
        return batch[start - 1][0]
    end = first.find(b")") + 1
    if (_MARKER.fullmatch(first[:end] + b"\n")
            and zlib.crc32(rest, zlib.crc32(first[end + 1:])) == crc):
        return lineno
    return None


def _concept(x: str | Concept) -> Concept:
    # checked before the taxonomy changes: a positional label has no name
    # to log, and label_match ignores relations on positions anyway
    c = x if isinstance(x, Concept) else mk_concept(x)
    if c.is_positional:
        raise StoreError(f"taxonomy edits take named concepts, got {c!r}")
    return c


def _term_value(node) -> T.Term:
    value = build_value(node)
    if not isinstance(value, T.Term):
        raise ValueError("not a term")
    return value


def _nothing():
    pass


def _fsync_dir(path: str):
    """Make a newly created file's directory entry durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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
