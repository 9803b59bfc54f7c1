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

import re
from bisect import bisect_right
from dataclasses import dataclass
from typing import Container, NamedTuple

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
_NEWLINE = re.compile(r"\n")


@dataclass(frozen=True)
class Declaration:
    name: str
    body: T.Term


class Token(NamedTuple):
    kind: str  # IDENT STRING NUMBER PUNCT EOF
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    line_starts = [0, *(m.end() for m in _NEWLINE.finditer(text))]

    def where(offset: int) -> tuple[int, int]:
        line = bisect_right(line_starts, offset)
        return line, offset - line_starts[line - 1] + 1

    tokens = [Token(kind, value, *where(offset))
              for kind, value, offset in scan(_TOKEN, text, where)]
    tokens.append(Token("EOF", None, *where(len(text))))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], tax: Taxonomy, declared: set[str],
                 known: Container[str]):
        self.tokens = tokens
        self.pos = 0
        self.tax = tax
        self.declared = declared
        self.known = known

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value=None) -> Token:
        tok = self.peek()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise ParseError(f"expected {want!r}, got {self._show(tok)}",
                             tok.line, tok.col)
        return self.next()

    @staticmethod
    def _show(tok: Token) -> str:
        return "end of input" if tok.kind == "EOF" else repr(tok.value)

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == value

    def program(self) -> list[Declaration]:
        decls: list[Declaration] = []
        seen: set[str] = set()
        while self.peek().kind != "EOF":
            tok = self.expect("IDENT")
            self.expect("PUNCT", ":=")
            body = self.term(in_args=False)
            self.expect("PUNCT", ";")
            if tok.value in seen:
                raise ParseError(f"duplicate declaration of {tok.value!r}",
                                 tok.line, tok.col)
            seen.add(tok.value)
            decls.append(Declaration(tok.value, body))
        return decls

    def term(self, in_args: bool) -> T.Term:
        tok = self.peek()
        if tok.kind == "STRING":
            self.next()
            return T.Str(tok.value)
        if tok.kind == "NUMBER":
            self.next()
            try:
                return T.Num(tok.value)
            except TermError:   # float() overflowed to inf
                raise ParseError("number out of range", tok.line, tok.col) from None
        if tok.kind == "IDENT":
            self.next()
            if self.at_punct("("):
                return self.application(tok)
            if in_args or tok.value in self.declared or tok.value in self.known:
                return T.term_name(tok.value)
            return T.atom(tok.value)
        if self.at_punct("{"):
            return self.record()
        raise ParseError(f"expected a term, got {self._show(tok)}",
                         tok.line, tok.col)

    def application(self, head: Token) -> T.Term:
        self.expect("PUNCT", "(")
        if self.at_punct(")"):
            self.next()
            return T.atom(head.value)
        args = [self.term(in_args=True)]
        while self.at_punct(","):
            self.next()
            args.append(self.term(in_args=True))
        self.expect("PUNCT", ")")
        return T.pred_app(head.value, args)

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
            raise ParseError(str(exc), open_tok.line, open_tok.col) from exc

    def field(self) -> tuple[str, T.Term]:
        name = self.expect("STRING")
        tok = self.peek()
        if not (self.at_punct(":") or self.at_punct("=")):
            raise ParseError(f"expected ':' or '=', got {self._show(tok)}",
                             tok.line, tok.col)
        self.next()
        return name.value, self.term(in_args=False)


def declared_names(tokens: list[Token]) -> set[str]:
    return {tokens[i].value
            for i in range(len(tokens) - 1)
            if tokens[i].kind == "IDENT"
            and tokens[i + 1].kind == "PUNCT" and tokens[i + 1].value == ":="}


def parse_program(text: str, tax: Taxonomy | None = None,
                  known: Container[str] = frozenset()) -> list[Declaration]:
    """Parse a declaration program.

    `known` supplies names already present in the store so that bare
    identifiers referring to them parse as aliases rather than atoms; it is
    only tested for membership, so a live view of the store's names serves.
    """
    tax = tax if tax is not None else Taxonomy()
    tokens = tokenize(text)
    parser = _Parser(tokens, tax, declared_names(tokens), known)
    return parser.program()
