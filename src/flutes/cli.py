"""Command-line session for a knowledge-base store.

Commands, one per line (# starts a comment):

  load <path>                          parse a declaration file and insert
  insert <declarations>                parse declarations given inline
  defclass <name> <type s-expression>  register a class
  def-analytic <name> <in> <out> nearest <k> <class>
                                       register a proximity filter analytic
  find-members                         promote terms and update all classes
  run-analytic <name>                  apply a registered analytic
  members <class>                      list a class's members
  same_as <a> <b>                      declare two labels equivalent
  is_a <child> <parent>                declare a label specialization
  stats                                collection counts
  quit                                 end the session

Reports are line-oriented key<TAB>value; opening a store whose torn log
tail was cut off reports torn_tail<TAB><bytes>.  Exit codes: 0 ok, 1
command error, 2 store corruption.
"""

import argparse
import sys
from typing import Container

from . import terms as T
from .classifier import find_members, skolemize
from .errors import FlutesError, RuleFailure, StoreCorruptionError
from .rules import Analytic, mk_analytic, run_analytic
from .sexp import parse_sexp, render_sexp
from .store import Store
from .syntax import parse_program

HELP = __doc__.strip()


class CommandError(FlutesError):
    pass


class Session:
    def __init__(self, store: Store, out, timings: bool = True):
        self.store = store
        self.out = out
        self.timings = timings
        self.analytics: dict[str, Analytic] = {}
        self.done = False

    def emit(self, line: str):
        print(line, file=self.out)

    def known_names(self) -> Container[str]:
        return self.store.term_names()

    # -- command handlers --

    def run_line(self, line: str):
        line = line.strip()
        if not line or line.startswith("#"):
            return
        word, _, rest = line.partition(" ")
        handler = getattr(self, "cmd_" + word.replace("-", "_"), None)
        if handler is None:
            self.emit(HELP)
            raise CommandError(f"unknown command {word!r}")
        handler(rest.strip())

    def _insert_text(self, text: str):
        decls = parse_program(text, self.store.tax, known=self.known_names())
        for d in decls:
            self.store.abox_insert(d.name, d.body)
        self.store.commit()
        self.emit(f"inserted\t{len(decls)}")

    def cmd_load(self, rest: str):
        if not rest:
            raise CommandError("load needs a file path")
        try:
            with open(rest, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CommandError(f"cannot read {rest!r}: {exc}") from exc
        self._insert_text(text)

    def cmd_insert(self, rest: str):
        if not rest:
            raise CommandError("insert needs declaration text")
        self._insert_text(rest)

    def cmd_defclass(self, rest: str):
        name, _, src = rest.partition(" ")
        if not name or not src.strip():
            raise CommandError("defclass needs a name and a type s-expression")
        value = parse_sexp(src.strip())
        if not isinstance(value, T.Type):
            raise CommandError("defclass expects a type s-expression")
        if isinstance(value, T.SubsetTy):
            skolemize(value)  # reject unsupported propositions up front
        self.store.mk_kb_class(name, value)
        self.store.commit()
        self.emit(f"class\t{name}")

    def cmd_def_analytic(self, rest: str):
        parts = rest.split()
        if len(parts) != 6 or parts[3] != "nearest":
            raise CommandError(
                "usage: def-analytic <name> <in> <out> nearest <k> <class>")
        name, in_cls, out_cls, _, k_text, near_cls = parts
        try:
            k = int(k_text)
        except ValueError:
            raise CommandError(f"nearest needs an integer radius, got {k_text!r}")
        if k < 0:
            raise CommandError("nearest radius must be >= 0")
        self.store.kb_class(near_cls)
        store = self.store

        def proximity_filter(t: T.Term) -> T.Term:
            start = _member_handle(store, in_cls, t)
            if not store.nearest(k, start, near_cls):
                raise RuleFailure(
                    f"no {near_cls} member within {k} steps of {start}")
            return t

        mk_analytic(store, name, in_cls, out_cls, proximity_filter,
                    registry=self.analytics)
        self.emit(f"analytic\t{name}")

    def cmd_find_members(self, rest: str):
        if rest:
            raise CommandError("find-members takes no arguments")
        report = find_members(self.store)
        for line in report.lines(timings=self.timings):
            self.emit(line)

    def cmd_run_analytic(self, rest: str):
        analytic = self.analytics.get(rest)
        if analytic is None:
            raise CommandError(f"unknown analytic {rest!r}")
        report = run_analytic(self.store, analytic)
        for line in report.lines():
            self.emit(line)

    def cmd_members(self, rest: str):
        cls = self.store.kb_class(rest)
        for mname, term in cls.members:
            self.emit(f"member\t{mname}\t{render_sexp(term)}")
        self.emit(f"count\t{len(cls.members)}")

    def cmd_same_as(self, rest: str):
        parts = rest.split()
        if len(parts) != 2:
            raise CommandError("usage: same_as <a> <b>")
        self.store.same_as(*parts)
        self.store.commit()
        self.emit(f"same_as\t{parts[0]}\t{parts[1]}")

    def cmd_is_a(self, rest: str):
        parts = rest.split()
        if len(parts) != 2:
            raise CommandError("usage: is_a <child> <parent>")
        self.store.add_is_a(*parts)
        self.store.commit()
        self.emit(f"is_a\t{parts[0]}\t{parts[1]}")

    def cmd_stats(self, rest: str):
        for key, value in self.store.stats().items():
            self.emit(f"{key}\t{value}")

    def cmd_quit(self, rest: str):
        self.done = True

    def cmd_help(self, rest: str):
        self.emit(HELP)


def _member_handle(store: Store, class_name: str, t: T.Term) -> str:
    """The stored name of a class member term, for graph traversal."""
    if isinstance(t, T.TermAlias):
        return t.name
    mname = store.kb_class(class_name).member_terms.get(t)
    if mname is None:
        raise RuleFailure(f"term is not a stored member of {class_name!r}")
    return mname


def run_session(store: Store, lines, out, timings: bool,
                stop_on_error: bool) -> int:
    session = Session(store, out, timings=timings)
    for line in lines:
        try:
            session.run_line(line)
        except StoreCorruptionError as exc:
            session.emit(f"error\t{exc}")
            return 2
        except FlutesError as exc:
            session.emit(f"error\t{exc}")
            if stop_on_error:
                return 1
        if session.done:
            break
    return 0


def _stdin_lines(out):
    while True:
        print("flutes> ", end="", file=out, flush=True)
        line = sys.stdin.readline()
        if not line:
            return
        yield line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flutes", description="knowledge-base store session")
    parser.add_argument("--store", required=True,
                        help="store directory (created if missing)")
    parser.add_argument("--script", help="command file; run and exit")
    parser.add_argument("--no-timings", action="store_true",
                        help="omit elapsed-time report lines")
    args = parser.parse_args(argv)
    out = sys.stdout
    try:
        store = Store(args.store)
    except StoreCorruptionError as exc:
        print(f"error\t{exc}", file=out)
        return 2
    except FlutesError as exc:
        print(f"error\t{exc}", file=out)
        return 1
    if store.torn_tail:
        print(f"torn_tail\t{store.torn_tail[0]}", file=out)
    try:
        if args.script:
            try:
                with open(args.script, "r", encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
            except OSError as exc:
                print(f"error\tcannot read {args.script!r}: {exc}", file=out)
                return 1
            return run_session(store, lines, out, not args.no_timings,
                               stop_on_error=True)
        return run_session(store, _stdin_lines(out), out, not args.no_timings,
                           stop_on_error=False)
    finally:
        store.close()


if __name__ == "__main__":
    raise SystemExit(main())
