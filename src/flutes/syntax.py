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

from dataclasses import dataclass
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
    r"(?P<IDENT>[A-Za-z_][A-Za-z0-9_-]*)", r"(?P<PUNCT>:=|[{}();,:=])",
    r"(?P<bad>.)")


@dataclass(frozen=True)
class Declaration:
    name: str
    body: T.Term


def where(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, col) of an offset; only an error asks for it."""
    line_start = text.rfind("\n", 0, offset) + 1
    return text.count("\n", 0, line_start) + 1, offset - line_start + 1


def tokenize(text: str) -> list[tuple]:
    """The scanner's (kind, value, offset) triples, kinds IDENT, STRING,
    NUMBER and PUNCT, then ("EOF", None, len(text))."""
    tokens = list(scan(_TOKEN, text, lambda offset: where(text, offset)))
    tokens.append(("EOF", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, tokens: list[tuple], tax: Taxonomy,
                 declared: set[str], known: Container[str]):
        self.text = text
        self.tokens = tokens
        self.pos = 0
        self.tax = tax
        self.declared = declared
        self.known = known

    def error(self, message: str, tok: tuple) -> ParseError:
        return ParseError(message, *where(self.text, tok[2]))

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def next(self) -> tuple:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value=None) -> tuple:
        tok = self.peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value if value is not None else kind
            raise self.error(f"expected {want!r}, got {self._show(tok)}", tok)
        return self.next()

    @staticmethod
    def _show(tok: tuple) -> str:
        return "end of input" if tok[0] == "EOF" else repr(tok[1])

    def at_punct(self, value: str) -> bool:
        kind, tok_value, _ = self.peek()
        return kind == "PUNCT" and tok_value == value

    def program(self) -> list[Declaration]:
        decls: list[Declaration] = []
        seen: set[str] = set()
        while self.peek()[0] != "EOF":
            tok = self.expect("IDENT")
            self.expect("PUNCT", ":=")
            body = self.term(in_args=False)
            self.expect("PUNCT", ";")
            name = tok[1]
            if name in seen:
                raise self.error(f"duplicate declaration of {name!r}", tok)
            seen.add(name)
            decls.append(Declaration(name, body))
        return decls

    def term(self, in_args: bool) -> T.Term:
        tok = self.peek()
        kind, value, _ = tok
        if kind == "STRING":
            self.next()
            return T.Str(value)
        if kind == "NUMBER":
            self.next()
            try:
                return T.Num(value)
            except TermError:   # float() overflowed to inf
                raise self.error("number out of range", tok) from None
        if kind == "IDENT":
            self.next()
            if self.at_punct("("):
                return self.application(value)
            if in_args or value in self.declared or value in self.known:
                return T.term_name(value)
            return T.atom(value)
        if self.at_punct("{"):
            return self.record()
        raise self.error(f"expected a term, got {self._show(tok)}", tok)

    def application(self, head: str) -> T.Term:
        self.expect("PUNCT", "(")
        if self.at_punct(")"):
            self.next()
            return T.atom(head)
        args = [self.term(in_args=True)]
        while self.at_punct(","):
            self.next()
            args.append(self.term(in_args=True))
        self.expect("PUNCT", ")")
        return T.pred_app(head, args)

    def record(self) -> T.Term:
        open_tok = self.expect("PUNCT", "{")
        fields: list[tuple[str, T.Term]] = []
        if not self.at_punct("}"):
            fields.append(self.field())
            while self.at_punct(","):
                self.next()
                fields.append(self.field())
        self.expect("PUNCT", "}")
        try:
            return T.record(self.tax, fields)
        except MalformedRecordError as exc:  # re-raise with a position
            raise self.error(str(exc), open_tok) from exc

    def field(self) -> tuple[str, T.Term]:
        name = self.expect("STRING")
        tok = self.peek()
        if not (self.at_punct(":") or self.at_punct("=")):
            raise self.error(f"expected ':' or '=', got {self._show(tok)}", tok)
        self.next()
        return name[1], self.term(in_args=False)


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
    tokens = tokenize(text)
    parser = _Parser(text, tokens, tax, declared_names(tokens), known)
    return parser.program()
