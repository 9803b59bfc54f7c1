"""Embedded persistent term store.

A store directory holds one append-only S-expression log, `log.fsx`, one
record per line, in the order the changes were made:

  (flutes-log 5)                      format version, first record of the log
  (class "name" <type>) | (same-as "a" "b") | (is-a "a" "b")
  (term "name" <term>)                an untyped term
  (promote N)                         a promotion; N terms are typed after it
  (member "class" "mname" <term>)     a member an analytic asserted
  (watermark "class" N (("dep" M) ...))   a judgement of the class
  (commit N crc)                      ends a batch of N records

Each record kind has one method that applies it (`_RECORDS`), live and on
replay.  For a promote record that is the promotion pass
(`classifier.promote_pass`): it types the untyped terms in insertion order,
so typed ids keep their order, and it must reach N typed terms.  For a
watermark record it is the class's judgement (`classifier.judge`), so
derived members are never logged: a static class scans the typed ids from
its old watermark up to N; a subset class solves its disjuncts over its
dependency classes' members, and N and the M are its member count and marks
after, which replay must reach.  A count that is not a non-negative
integer (N, M or the version) is corruption.  Logs of versions 1 to 4
still open.  Up to version 3 a promote record names one term, which
replay moves to the typed ones, and versions 1 and 2 also logged derived
members.  Up to version 4 a static class kept one member per distinct
term, so a subset class's figures counted members that equal terms had
merged: replay takes what its judgement reaches instead.  The first
batch appended to such a log begins with (flutes-log 5).  A taxonomy
edit that changes a relation rewinds every class's marks, live and on
replay; one that changes none is logged all the same.

commit() appends the batch and its marker, where crc is zlib.crc32 of the
batch's bytes, with one write and one fsync.  Replay applies a batch only
once its marker checks out; a record that the mutation would refuse is
corruption.  A batch that fails its marker is a torn tail when no valid
marker follows it (it is truncated and reported in `torn_tail`), and
corruption otherwise, also when the marker checks out against the batch's
last records: a damaged marker then joined two committed batches.  A store
without a path lives in memory and renders no records.  An exclusive flock
on the file `lock` serializes writer sessions per directory.
"""

from __future__ import annotations

import fcntl
import io
import os
import re
import zlib
from functools import partial
from typing import Container

from .classifier import Binding, ClassStats, judge, promote_pass
from .clause import SkolemClause, skolemize
from .errors import (AliasCycleError, DuplicateNameError, StoreCorruptionError,
                     StoreError)
from .sexp import build_value, quote_string, read_node, render_sexp
from .taxonomy import Concept, Taxonomy, mk_concept
from .typecheck import infer_static_type, resolve_type
from . import terms as T

_CLASS_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_-]*\Z")

LOG = "log.fsx"
LOCK = "lock"
_VERSION = "(flutes-log 5)\n"   # this version also reads versions 1 to 4
_MARKER = re.compile(rb"\(commit ([1-9][0-9]*) ([0-9]+)\)\n")


class KbClass:
    __slots__ = ("name", "definition", "ty", "clause", "members", "by_name",
                 "by_alias", "watermark", "dep_marks", "binding")

    def __init__(self, name: str, definition: T.Type, ty: T.Type,
                 clause: SkolemClause | None):
        self.name = name
        self.definition = definition
        self.ty = ty           # the fully alias-expanded static member type
        self.clause = clause   # compiled definition of a subset class
        # (name, term) in insertion order; a member is a named node, so two
        # members may hold equal terms
        self.members: list[tuple[str, T.Term]] = []
        self.by_name: dict[str, int] = {}   # name -> member index
        # alias -> ascending indices of the members whose adjacency holds it
        self.by_alias: dict[str, list[int]] = {}
        self.watermark = 0   # static: the typed ids judged; subset: 0
        # subset: members per dependency class judged; None while unsolved
        self.dep_marks: dict[str, int] | None = None
        # a subset class's binding compiled into member terms, with the
        # proof memo that a taxonomy edit clears
        self.binding = None if clause is None else Binding(self)

    @property
    def is_subset(self) -> bool:
        return self.clause is not None


class Store:
    def __init__(self, path: str | None = None):
        self.path = path
        self.tax = Taxonomy()
        self.terms: dict[str, T.Term] = {}     # every stored term, by name
        self.untyped: dict[str, T.Term] = {}   # those not yet promoted
        self.typed_list: list[tuple[str, T.Term]] = []
        self.classes: dict[str, KbClass] = {}
        # the containment graph: name -> the alias names its term holds, a
        # tuple, so the many terms that hold none share `()`; alias -> the
        # names whose terms hold it, in the order they were added
        self.contains_map: dict[str, tuple[str, ...]] = {}
        self.contained_by_map: dict[str, list[str]] = {}
        self._type_memo: dict[str, T.Type | None] = {}
        self._batch: list[str] = []       # records rendered since the last commit
        self._log_fd: int | None = None
        self._log_size = 0                # bytes of log.fsx up to the last marker
        self._header = [_VERSION]  # begins the next batch of a new or older log
        self._version = 5          # of the log records being replayed
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
        # overwrite, then cut what a longer stale pid left: truncating a
        # non-empty file to 0 can block for tens of milliseconds (ext4
        # mounted with discard), and every open of a store would pay it
        pid = str(os.getpid()).encode("ascii")
        os.pwrite(fd, pid, 0)
        os.ftruncate(fd, len(pid))
        self._lock_fd = fd

    def _release_lock(self):
        if self._lock_fd is not None:
            os.close(self._lock_fd)   # closing the last descriptor unlocks
            self._lock_fd = None

    def _log(self, head: str, *args):
        """Add the record (head arg ...) to the current batch."""
        record = self._render(head, *args)
        if record is not None:
            self._batch.append(record)

    def _render(self, head: str, *args) -> str | None:
        """The record (head arg ...) as a log line; None for an in-memory
        store, which renders nothing."""
        if self.path is None:
            return None
        return "(" + " ".join([head, *map(_field, args)]) + ")\n"

    def commit(self):
        """Append the batch and its (commit N crc) marker to the log with one
        write and one fsync.  Every record follows the ones it depends on
        in the same file, so no order between files has to be kept."""
        if not self._batch:
            return
        records = self._header + self._batch
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
        if self._log_size == 0:
            _fsync_dir(self.path)   # the directory entry of a new log
        self._log_size += len(data)
        self._header = []
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
        self._put_edit(a, b, Taxonomy.same_as)
        self._log("same-as", a.name, b.name)

    def add_is_a(self, child: str | Concept, parent: str | Concept):
        child, parent = _concept(child), _concept(parent)
        self._put_edit(child, parent, Taxonomy.add_is_a)
        self._log("is-a", child.name, parent.name)

    def _put_edit(self, a: Concept, b: Concept, edit):
        if not edit(self.tax, a, b):
            return   # the relations are as they were, and so is every verdict
        # field selections infer through label_match, so an edit may change
        # inferred types; the taxonomy has cleared its proof memo
        self._type_memo.clear()
        # every verdict may change, so every class judges everything again;
        # members stay, and a static scan skips those it already holds
        for cls in self.classes.values():
            cls.watermark = 0
            if cls.is_subset:
                cls.dep_marks = None
                cls.binding.proofs.clear()

    # -- term collections --

    def abox_insert(self, name: str, t: T.Term):
        """Record a named term in the untyped collection.  Its record is
        rendered first, so a term that cannot be rendered changes nothing."""
        T.check_labels(t)
        record = self._render("term", name, t)
        self._put_term(name, t)
        if record is not None:
            self._batch.append(record)

    def abox_insert_all(self, terms: list[tuple[str, T.Term]]):
        """Insert named terms in order, all or none: when abox_insert
        refuses one, the terms inserted before it, their adjacency and
        their records are taken out again and the error is raised."""
        mark = len(self._batch)
        done = []
        try:
            for name, t in terms:
                self.abox_insert(name, t)
                done.append(name)
        except BaseException:
            for name in reversed(done):
                self._drop_term(name)
            del self._batch[mark:]
            raise

    def _drop_term(self, name: str):
        """Undo _put_term of a term that nothing has promoted or named yet."""
        del self.untyped[name], self.terms[name]
        for ref in self.contains_map.pop(name):
            users = self.contained_by_map[ref]
            users.remove(name)
            if not users:
                del self.contained_by_map[ref]

    def _put_term(self, name: str, t: T.Term):
        """Store an untyped term, live or on replay, refusing a name that
        is not a nonempty string, a bound name and an alias cycle."""
        if not name or not isinstance(name, str):
            raise StoreError("term name must be a nonempty string")
        if name in self.contains_map:     # a term's or a member's name
            raise DuplicateNameError(f"term {name!r} already bound")
        refs = T.alias_names(t)
        self._check_acyclic(name, refs)
        self.untyped[name] = self.terms[name] = t
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

    def _add_adjacency(self, name: str, refs: set[str]) -> tuple[str, ...]:
        """Record the alias names a term or member holds; returns them as
        the tuple `contains_map` keeps."""
        refs = self.contains_map[name] = tuple(refs)
        for r in refs:
            self.contained_by_map.setdefault(r, []).append(name)
        return refs

    def _promote(self, name: str, ty: T.Type | None = None):
        """Move an untyped term into the typed collection; `ty`, when given,
        is its inferred type, which `type_of` then returns."""
        self.typed_list.append((name, self.untyped.pop(name)))
        if ty is not None:
            self._type_memo[name] = ty

    def _put_promotion(self, arg: int | str):
        """Replay a promote record: since version 4 a promotion pass, which
        must reach `arg` typed terms; before, one term's name."""
        if self._version < 4:
            if not isinstance(arg, str):
                raise ValueError(f"a version-{self._version} promote record "
                                 f"names a term")
            self._promote(arg)
            return
        if not isinstance(arg, int):
            raise ValueError("a promote record counts typed terms")
        promote_pass(self)
        if len(self.typed_list) != arg:
            raise ValueError(f"promoting again types {len(self.typed_list)} "
                             f"terms, not {arg}")

    def term_names(self) -> Container[str]:
        """Every stored term name, typed or untyped, as a live view."""
        return self.terms

    def lookup(self, name: str) -> T.Term | None:
        return self.terms.get(name)

    def type_of(self, name: str) -> T.Type | None:
        """Inferred type of a typed term; None for unknown or untyped names.
        A term promoted since the last taxonomy edit has the type its
        promotion inferred; others are inferred once here."""
        memo = self._type_memo
        if name in memo:        # only typed names are memoised
            return memo[name]
        t = self.terms.get(name)
        if t is None or name in self.untyped:
            return None
        ty = memo[name] = infer_static_type(t, self.tax, self.type_of)
        return ty

    # -- classes --

    def mk_kb_class(self, name: str, ty: T.Type):
        """Define a class.  Its record is rendered first and the class is
        compiled as it is registered, so a class that cannot be rendered or
        compiled changes nothing."""
        T.check_labels(ty)
        record = self._render("class", name, ty)
        self._put_class(name, ty)
        if record is not None:
            self._batch.append(record)

    def _put_class(self, name: str, ty: T.Type):
        """Register a class, live or on replay, with its type resolved and,
        for a subset class, its proposition and binding compiled."""
        if not isinstance(name, str) or not _CLASS_NAME.match(name):
            raise StoreError(f"invalid class name {name!r}")
        if name in self.classes:
            raise DuplicateNameError(f"class {name!r} already defined")
        # so the classes are always registered in dependency order
        for ref in sorted(T.type_alias_names(ty)):
            if ref not in self.classes:
                raise StoreError(f"class {name!r} references unknown type {ref!r}")
        clause = skolemize(ty) if isinstance(ty, T.SubsetTy) else None
        resolved = resolve_type(ty, lambda ref: self.classes[ref].ty)
        self.classes[name] = KbClass(name, ty, resolved, clause)

    def kb_class(self, name: str) -> KbClass:
        cls = self.classes.get(name)
        if cls is None:
            raise StoreError(f"unknown class {name!r}")
        return cls

    def add_member(self, class_name: str, member_name: str, t: T.Term) -> bool:
        """Insert and log a coerced member; returns False when the class
        holds its name.  A record whose labels are out of order is refused
        (`terms.check_labels`), and the member's record is rendered first,
        so a term that cannot be rendered changes nothing."""
        T.check_labels(t)
        return self._add_member(class_name, member_name, t)

    def _add_member(self, class_name: str, member_name: str, t: T.Term,
                    text: str | None = None) -> bool:
        """`add_member` for a term whose records are in label order, as a
        coercion's output is; `text`, when given, is its storage form, which
        the member record then holds as it is."""
        if member_name in self.kb_class(class_name).by_name:
            return False
        record = None
        if self.path is not None:   # the record _render would make
            text = render_sexp(t) if text is None else text
            record = (f"(member {quote_string(class_name)} "
                      f"{quote_string(member_name)} {text})\n")
        self._put_member(class_name, member_name, t)
        if record is not None:
            self._batch.append(record)
        return True

    def _put_member(self, class_name: str, member_name: str, t: T.Term,
                    refs: set[str] | None = None) -> bool:
        """Insert a member unless the class holds its name; `refs`, when
        given, are the term's alias names."""
        cls = self.kb_class(class_name)
        if member_name in cls.by_name:
            return False
        known = self.contains_map.get(member_name)    # a static member's term
        if known is None:
            known = self._add_adjacency(
                member_name, T.alias_names(t) if refs is None else refs)
        idx = cls.by_name[member_name] = len(cls.members)
        cls.members.append((member_name, t))
        for ref in known:
            cls.by_alias.setdefault(ref, []).append(idx)
        return True

    def set_watermark(self, class_name: str, prune: bool = True,
                      stats: ClassStats | None = None):
        """Judge the class as applying its watermark record does, up to the
        typed ids stored now, and log the record when the judgement moved a
        mark or added a member."""
        cls = self.kb_class(class_name)
        before = cls.watermark, cls.dep_marks, len(cls.members)
        first, marks = judge(self, cls, len(self.typed_list), prune, stats)
        if (cls.watermark, cls.dep_marks, len(cls.members)) != before:
            self._log("watermark", class_name, first, sorted(marks.items()))

    def _put_watermark(self, class_name: str, first: int,
                       dep_marks: dict[str, int]):
        """Replay a watermark record by running its judgement, which must
        reach the record's figures (a subset class's only since version
        5)."""
        cls = self.kb_class(class_name)
        if cls.is_subset and self._version < 3:
            cls.dep_marks = dep_marks   # the members have member records
            return
        reached = judge(self, cls, first)
        if cls.is_subset and self._version < 5:
            return   # counted while equal static terms made one member
        if reached != (first, dep_marks):
            raise ValueError(f"judging class {class_name!r} again reaches "
                             f"{reached}, not {(first, dep_marks)}")

    # -- containment graph --

    def nearest(self, k: int, name: str, class_name: str) -> set[str]:
        """Names within k undirected containment steps that are members of
        the class (the start counts when it is a member)."""
        if name not in self.contains_map and name not in self.contained_by_map:
            raise StoreError(f"unknown term {name!r}")
        members = self.kb_class(class_name).by_name
        both = (self.contains_map, self.contained_by_map)
        visited = {name}
        frontier = [name]
        for _ in range(k):
            nxt = []
            for cur in frontier:
                for adjacent in both:
                    for peer in adjacent.get(cur, ()):
                        if peer not in visited:
                            visited.add(peer)
                            nxt.append(peer)
            if not nxt:
                break
            frontier = nxt
        return set(filter(members.__contains__, visited))

    # -- statistics --

    def stats(self) -> dict[str, int]:
        out = {
            "untyped": len(self.untyped),
            "typed": len(self.typed_list),
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
        if first and not batch[0][1].startswith(b"(flutes-log "):
            raise StoreCorruptionError(f"{LOG}:1: expected {_VERSION.strip()}")
        for lineno, raw in batch:
            try:
                apply, args = _decode(raw)
                apply(self, *args)
            except Exception as exc:
                raise StoreCorruptionError(f"{LOG}:{lineno}: {exc}") from exc

    def _diagnose(self, batch: list[tuple[int, bytes]], marker_line: int) -> str:
        """The error for a batch that failed its marker: its first record
        that does not decode, else the marker itself."""
        for lineno, raw in batch:
            try:
                _decode(raw)
            except Exception as exc:
                return f"{LOG}:{lineno}: {exc}"
        return (f"{LOG}:{marker_line}: record count or checksum does not "
                f"match the batch before it")

    def _put_version(self, version: int):
        if version not in (1, 2, 3, 4, 5):
            raise ValueError(f"unknown log version {version}")
        self._version = version
        self._header = [_VERSION] if version < 5 else []

    def dump_state(self) -> str:
        """Canonical rendering of all in-memory state, for equality checks,
        one line each; written line by line into one buffer, which holds
        less at its peak than a list of the lines and their join."""
        out = io.StringIO()
        write = out.write
        for name, t in sorted(self.untyped.items()):
            write(f"untyped {name} {render_sexp(t)}\n")
        for name, t in self.typed_list:
            write(f"typed {name} {render_sexp(t)}\n")
        adjacency = self.contains_map
        for name in sorted(adjacency):
            write(f"adj {name} [{' '.join(sorted(adjacency[name]))}]\n")
        for name, cls in sorted(self.classes.items()):
            marks = sorted((cls.dep_marks or {}).items())
            deps = " ".join(f"{k}={v}" for k, v in marks)
            write(f"class {name} wm={cls.watermark} deps=[{deps}] "
                  f"{render_sexp(cls.definition)}\n")
            for mname, t in cls.members:
                write(f"member {name} {mname} {render_sexp(t)}\n")
        return out.getvalue() or "\n"   # an empty store: one empty line


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
    c = mk_concept(x)
    if c.is_positional:
        raise StoreError(f"taxonomy edits take named concepts, got {c!r}")
    return c


def _count(x) -> int:
    """A count field of a record: a non-negative integer, which the reader
    gives as a float."""
    if type(x) is not float or not x.is_integer() or x < 0:
        raise ValueError(f"{x!r} is not a count")
    return int(x)


def _promotion(x) -> int | str:
    """A promote record's field: a count of typed terms (a number, since
    version 4) or the name of a term (a string, before)."""
    return _count(x) if isinstance(x, float) else str(x)


# head -> (the method that applies it, live and on replay; its field readers)
_RECORDS = {
    "flutes-log": (Store._put_version, (_count,)),
    "same-as": (partial(Store._put_edit, edit=Taxonomy.same_as), (_concept,) * 2),
    "is-a": (partial(Store._put_edit, edit=Taxonomy.add_is_a), (_concept,) * 2),
    "class": (Store._put_class, (str, partial(build_value, want=T.Type))),
    "term": (Store._put_term, (str, partial(build_value, want=T.Term))),
    "promote": (Store._put_promotion, (_promotion,)),
    "member": (Store._put_member, (str, str, partial(build_value, want=T.Term))),
    "watermark": (Store._put_watermark,
                  (str, _count,
                   lambda marks: {str(d): _count(m) for d, m in marks})),
}


def _decode(raw: bytes):
    """The method that applies one record, and its arguments."""
    node = read_node(raw.decode("utf-8"))
    if not isinstance(node, list) or not node or not isinstance(node[0], str):
        raise ValueError("not a record")
    apply, readers = _RECORDS.get(node[0], (None, ()))
    if apply is None or len(node) - 1 != len(readers):
        raise ValueError(f"unknown record {node[0]!r}")
    return apply, [read(arg) for read, arg in zip(readers, node[1:])]


def _fsync_dir(path: str):
    """Make a newly created file's directory entry durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
