"""Parser for term-declaration programs in the concrete syntax.

A program is a sequence of declarations:

    joe := {"name" = "Joe", "birth_date" = "1984-06-27"};
    t1  := {"amount" = 500.0, "type" = check()};
    o1  := orig-of(joe, t1);

Grammar:

    program := (decl ";")*
    decl    := IDENT ":=" term
    term    := STRING | NUMBER | IDENT "(" args? ")" | IDENT
             | "{" (field ("," field)*)? "}"
    field   := STRING (":" | "=") term

Both ":" and "=" separate a field name from its value.  An identifier
applied to "()" is an atom (`check()`); applied to arguments it is a
predicate application; a bare identifier in argument position is a term
alias (forward references allowed); a bare identifier elsewhere is an
alias when the name is declared (in the program or in `known`) and an
atom otherwise (`Kentucky`).  `#` starts a comment to end of line.
"""

from __future__ import annotations

from time import perf_counter
from typing import Container

from .errors import MalformedRecordError, ParseError, TermError
from .sexp import scan, string_tokens, token_pattern
from .taxonomy import Taxonomy
from . import terms as T

# A number is a digit, or "-" and a digit, followed by digits, ".", "e" or
# "E", and a sign right after an exponent; float() decides if it is valid.
_TOKEN = token_pattern(
    r"\s+|#[^\n]*", string_tokens("\n"),
    r"(?P<NUMBER>-?\d(?:[\d.eE]|(?<=[eE])[+-])*)",
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_-]*)", r"(?P<PUNCT>:=|[{}();,:=])")


class Declaration(T.Value):
    name: str
    body: T.Term


def where(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, col) of an offset; only an error asks for it."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def tokenize(text: str) -> list[tuple]:
    """The scanner's (kind, value, offset) triples, kinds IDENT, STRING,
    NUMBER and PUNCT, then ("EOF", None, len(text))."""
    tokens = scan(_TOKEN, text, lambda offset: where(text, offset))
    tokens.append(("EOF", None, len(text)))
    return tokens


class _Parser:
    """Recursive descent over the token list: each method takes the index
    of its first token and returns what it built and the index after it.
    Nothing the parser holds refers back to it, so a batch's tokens are
    freed when the parse returns, not by the cyclic collector."""

    def __init__(self, text: str, tokens: list[tuple], tax: Taxonomy,
                 known: Container[str]):
        self.text = text
        self.tokens = tokens
        self.tax = tax
        self.declared: set[str] | None = None   # built on first use
        self.known = known

    def error(self, message: str, i: int) -> ParseError:
        return ParseError(message, *where(self.text, self.tokens[i][2]))

    def expected(self, want: str, i: int) -> ParseError:
        kind, value, _ = self.tokens[i]
        got = "end of input" if kind == "EOF" else repr(value)
        return self.error(f"expected {want}, got {got}", i)

    def program(self) -> list[Declaration]:
        tokens = self.tokens
        decls: list[Declaration] = []
        seen: set[str] = set()
        i = 0
        while tokens[i][0] != "EOF":
            kind, name, _ = tokens[i]
            if kind != "IDENT":
                raise self.expected("'IDENT'", i)
            kind, value, _ = tokens[i + 1]
            if value != ":=" or kind != "PUNCT":
                raise self.expected("':='", i + 1)
            body, end = self.term(i + 2, False)
            kind, value, _ = tokens[end]
            if value != ";" or kind != "PUNCT":
                raise self.expected("';'", end)
            if name in seen:
                raise self.error(f"duplicate declaration of {name!r}", i)
            seen.add(name)
            decls.append(Declaration(name, body))
            i = end + 1
        return decls

    def term(self, i: int, in_args: bool) -> tuple[T.Term, int]:
        tokens = self.tokens
        kind, value, _ = tokens[i]
        if kind == "STRING":
            return T.Str(value), i + 1
        if kind == "IDENT":
            next_kind, next_value, _ = tokens[i + 1]
            if next_value == "(" and next_kind == "PUNCT":
                return self.application(value, i + 2)
            if in_args or self.declares(value) or value in self.known:
                return T.TermAlias(value), i + 1
            return T.atom(value), i + 1
        if kind == "NUMBER":
            try:
                return T.Num(value), i + 1
            except TermError:   # float() overflowed to inf
                raise self.error("number out of range", i) from None
        if value == "{" and kind == "PUNCT":
            return self.record(i + 1)
        raise self.expected("a term", i)

    def declares(self, name: str) -> bool:
        """Whether the program declares `name`, anywhere in it.  Only a bare
        identifier outside an argument list asks, so the names are
        collected then, in one pass over the tokens."""
        if self.declared is None:
            self.declared = declared_names(self.tokens)
        return name in self.declared

    def application(self, head: str, i: int) -> tuple[T.Term, int]:
        """`head(...)` from the token after its "("."""
        tokens = self.tokens
        kind, value, _ = tokens[i]
        if value == ")" and kind == "PUNCT":
            return T.atom(head), i + 1
        args = []
        while True:
            arg, i = self.term(i, True)
            args.append(arg)
            kind, value, _ = tokens[i]
            if value != "," or kind != "PUNCT":
                break
            i += 1
        if value != ")" or kind != "PUNCT":
            raise self.expected("')'", i)
        return T.pred_app(head, args), i + 1

    def record(self, i: int) -> tuple[T.Term, int]:
        """`{...}` from the token after its "{"."""
        tokens = self.tokens
        open_brace = i - 1
        fields: list[tuple[str, T.Term]] = []
        kind, value, _ = tokens[i]
        if value != "}" or kind != "PUNCT":
            while True:
                kind, label, _ = tokens[i]
                if kind != "STRING":
                    raise self.expected("'STRING'", i)
                kind, value, _ = tokens[i + 1]
                if (value != ":" and value != "=") or kind != "PUNCT":
                    raise self.expected("':' or '='", i + 1)
                field, i = self.term(i + 2, False)
                fields.append((label, field))
                kind, value, _ = tokens[i]
                if value != "," or kind != "PUNCT":
                    break
                i += 1
            if value != "}" or kind != "PUNCT":
                raise self.expected("'}'", i)
        try:
            return T.record(self.tax, fields), i + 1
        except MalformedRecordError as exc:  # re-raise with a position
            raise self.error(str(exc), open_brace) from exc


def declared_names(tokens: list[tuple]) -> set[str]:
    return {name for (kind, name, _), (next_kind, next_value, _)
            in zip(tokens, tokens[1:])
            if kind == "IDENT" and next_kind == "PUNCT" and next_value == ":="}


def parse_program(text: str, tax: Taxonomy | None = None,
                  known: Container[str] = frozenset()) -> list[Declaration]:
    """Parse a declaration program.

    `known` supplies names already present in the store so that bare
    identifiers referring to them parse as aliases rather than atoms; it is
    only tested for membership, so a live view of the store's names serves.
    """
    tax = tax if tax is not None else Taxonomy()
    return _Parser(text, tokenize(text), tax, known).program()


def insert_text(store, text: str, known: Container[str] | None = None,
                times: dict[str, float] | None = None) -> int:
    """Parse a program against the store's taxonomy and `known` names (by
    default `store.term_names()`), insert it, all or nothing, and commit it
    as one batch; the number of declarations.  `times`, when given,
    receives the seconds spent parsing (`parse_s`) and inserting and
    committing (`insert_s`)."""
    start = perf_counter()
    decls = parse_program(text, store.tax,
                          store.term_names() if known is None else known)
    parsed = perf_counter()
    store.abox_insert_all([(d.name, d.body) for d in decls])
    store.commit()
    if times is not None:
        times["parse_s"] = parsed - start
        times["insert_s"] = perf_counter() - parsed
    return len(decls)
