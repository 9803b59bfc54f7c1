"""S-expression storage form for terms, types, and propositions.

One value per line: the writer never emits a newline, and strings escape
``\\``, ``"``, newline, tab, and carriage return.  That string literal and
the regex token scanner `scan` are shared with the declaration syntax.  The
grammar is head-symbol tagged and fully parenthesized, and it lives in one
place, the head table `_HEADS`: for each head, the node class, the arity,
the reader of the arguments and the writer.  Reading and writing both go
through it, so parse_sexp(render_sexp(x)) == x for every well-formed x.
"""

from __future__ import annotations

import re

from .errors import FlutesError, ParseError
from .taxonomy import Concept, mk_concept, positional
from . import terms as T

_SAFE_SYM = re.compile(r"[A-Za-z_][A-Za-z0-9_.:/#-]*\Z")

# The string literal shared by the storage form and the declaration
# syntax: double quotes, with these five characters escaped.
_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\t": "\\t", "\r": "\\r"}
_QUOTE = str.maketrans(_ESCAPES)
_UNESCAPE = {esc[1]: c for c, esc in _ESCAPES.items()}
_ESCAPE_SEQ = re.compile(r"\\(.)", re.S)


def quote_string(s: str) -> str:
    return '"' + s.translate(_QUOTE) + '"'


def _unescape(m: re.Match) -> str:
    return _UNESCAPE[m[1]]


def _name(s: str) -> str:
    return s if _SAFE_SYM.match(s) else quote_string(s)


_LABELS: dict[Concept, str] = {}   # one rendering per interned concept


def _label(c: Concept) -> str:
    out = _LABELS.get(c)
    if out is None:
        out = _LABELS[c] = (f"(pos {c.position})" if c.is_positional
                            else _name(c.name))
    return out


def render_sexp(x) -> str:
    return _render(x)


def _render(x) -> str:
    write = _WRITERS.get(type(x))
    if write is None:
        raise TypeError(f"not a renderable value: {x!r}")
    return write(x)


def _fields(fields) -> str:
    return " ".join([f"({_label(c)} {_render(v)})" for c, v in fields])


def template(x: T.Term, names: list[str]):
    """`render_sexp` compiled for a term that binds no variable, as a
    function from a substitution that binds each of `names` to the storage
    form of x with the values in place of those variables.  x is rendered
    once here, with an alias in place of each variable, and cut at those
    aliases; the function renders only the values, between the pieces."""
    # a mark longer than any alias name in x, so no alias of x renders as a slot
    mark = "\0" * (1 + max(map(len, T.alias_names(x)), default=0))
    slots = {n: T.TermAlias(f"{mark}{i}") for i, n in enumerate(names)}
    cut = re.split(f'\\(alias "{mark}(\\d+)"\\)', _render(T.substituter(x)(slots)))
    first = cut[0]
    rest = [(names[int(i)], piece) for i, piece in zip(cut[1::2], cut[2::2])]

    def render(s) -> str:
        out = first
        for name, piece in rest:
            out += _render(s[name]) + piece
        return out
    return render


# ---------------------------------------------------------------------------
# scanning, shared with the declaration syntax


def string_tokens(raw: str = "") -> str:
    """Pattern alternatives for the string literal: a well-formed literal,
    whose STRING group holds the text between the quotes, or else the
    longest well-formed start of one (badstring), which `scan` reports.
    `raw` names characters besides the quote and the backslash that may
    not appear unescaped."""
    char = '[^"\\\\' + re.escape(raw) + ']*'
    body = f'{char}(?:\\\\[{re.escape("".join(_UNESCAPE))}]{char})*'
    return f'"(?P<STRING>{body})"|(?P<badstring>"{body})'


def token_pattern(skip: str, *tokens: str) -> re.Pattern:
    """A pattern for `scan`: one of the token alternatives followed by any
    whitespace, which then costs no match of its own; else `skip`
    (whitespace, comments); else any other character (`bad`).  No token
    may start where `skip` can, so trying the tokens first, as the
    commonest match, changes no token."""
    return re.compile(f"(?:{'|'.join(tokens)})\\s*|(?P<skip>{skip})|(?P<bad>.)")


# the kinds that `scan` drops, converts or reports; any other kind keeps
# the matched text as its value
_SPECIAL = frozenset({"skip", "STRING", "NUMBER", "badstring", "bad"})


def scan(pattern: re.Pattern, text: str, where=None) -> list[tuple]:
    """The tokens of `text`, a list of (kind, value, offset) triples.

    Each token alternative of `pattern` is a group named after the kind of
    token it matches.  A STRING is unquoted and a NUMBER converted by
    float; `badstring` and `bad` are errors, raised before any token is
    returned.  `where` maps an offset to the (line, col) that a ParseError
    carries.
    """
    tokens: list[tuple] = []
    append = tokens.append
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind not in _SPECIAL:
            append((kind, m[kind], m.start()))
        elif kind == "STRING":
            body = m[kind]
            if "\\" in body:
                body = _ESCAPE_SEQ.sub(_unescape, body)
            append((kind, body, m.start()))
        elif kind == "NUMBER":
            raw = m[kind]
            try:
                append((kind, float(raw), m.start()))
            except ValueError:
                raise _error(f"invalid number {raw!r}", m.start(), where) from None
        elif kind == "badstring":
            end = m.end(kind)
            if text.startswith("\\", end):
                raise _error("bad string escape", end + 1, where)
            raise _error("unterminated string", m.start(), where)
        elif kind == "bad":
            raise _error(f"unexpected character {m[kind]!r}", m.start(), where)
    return tokens


def _error(message: str, offset: int, where) -> ParseError:
    return ParseError(message, *(where(offset) if where else ()))


# ---------------------------------------------------------------------------
# reading


class _Sym(str):
    """A bare symbol, distinct from a quoted string."""


# Any other run of characters is a symbol, or a number when it starts with
# a digit or with a sign and a digit.
_TOKEN = token_pattern(
    r"\s+", r"(?P<OPEN>\()", r"(?P<CLOSE>\))", string_tokens(),
    r'(?P<NUMBER>[+-]?\d[^\s()"]*)', r'(?P<SYMBOL>[^\s()"]+)')


def read_node(text: str):
    """Read exactly one node (nested lists of symbols/strings/numbers)."""
    top: list = []
    items, open_lists = top, []
    for kind, value, _ in scan(_TOKEN, text):
        if not open_lists and (top or kind == "CLOSE"):
            raise ParseError("trailing tokens after S-expression" if top
                             else "unexpected ')'")
        if kind == "OPEN":
            open_lists.append(items)
            items = []
        elif kind == "CLOSE":
            done, items = items, open_lists.pop()
            items.append(done)
        elif kind == "SYMBOL":
            items.append(_Sym(value))
        else:
            items.append(value)
    if open_lists:
        raise ParseError("unbalanced parenthesis")
    if not top:
        raise ParseError("unexpected end of input")
    return top[0]


def parse_sexp(text: str, want=None):
    """Parse one term, type, or proposition from its storage form; a value
    not of category `want` (T.Term, T.Type or T.Prop) is refused."""
    return build_value(read_node(text), want)


def build_value(node, want=None):
    """Construct a term/type/prop from a node produced by read_node; a
    value not of category `want` is refused.  Readers enter here once per
    value, `parse_sexp` too; recursion goes through `_build`."""
    return _build(node, want)


def _build(node, want=None):
    """The value of a node, checked against the head table: a tagged list,
    a known head, a value of category `want` (T.Term, T.Type or T.Prop;
    None takes any) and the head's arity."""
    if not isinstance(node, list) or not node or not isinstance(node[0], _Sym):
        raise ParseError(f"expected a tagged list, got {node!r}")
    head = node[0]
    entry = _HEADS.get(head)
    if entry is None:
        raise ParseError(f"unknown head symbol {head!r}")
    cls, arity, read, _ = entry
    # issubclass by the MRO: issubclass takes the slow path on a class
    # whose metaclass is not `type`
    if want is not None and want not in cls.__mro__:
        raise ParseError(f"expected a {want.__name__.lower()}, got ({head} ...)")
    if arity is not None and len(node) - 1 != arity:
        raise ParseError(f"({head} ...) takes {arity} argument(s)")
    try:
        return read(*node[1:])
    except ParseError:
        raise
    except FlutesError as exc:  # a constructor's rule: (num 1e999), (atom "")
        raise ParseError(str(exc)) from None


def _term(node) -> T.Term:
    return _build(node, T.Term)


def _type(node) -> T.Type:
    return _build(node, T.Type)


def _prop(node) -> T.Prop:
    return _build(node, T.Prop)


def _read_label(node) -> Concept:
    if isinstance(node, str):
        return mk_concept(str(node))
    if (isinstance(node, list) and len(node) == 2 and isinstance(node[0], _Sym)
            and node[0] == "pos" and isinstance(node[1], float)
            and node[1].is_integer() and node[1] >= 0):
        return positional(int(node[1]))
    raise ParseError(f"bad label {node!r}")


def _read_name(node) -> str:
    if isinstance(node, str):
        return str(node)
    raise ParseError(f"expected a name, got {node!r}")


def _read_list(node, what: str) -> list:
    if not isinstance(node, list):
        raise ParseError(f"expected a list of {what}, got {node!r}")
    return node


def _read_fields(node, want) -> tuple:
    fields: dict[Concept, object] = {}
    for f in _read_list(node, "fields"):
        if not isinstance(f, list) or len(f) != 2:
            raise ParseError(f"bad record field {f!r}")
        label = _read_label(f[0])
        if label in fields:
            raise ParseError(f"repeated label {_label(label)}")
        fields[label] = _build(f[1], want)
    return T.sort_fields(fields.items())


def _read_num(x) -> T.Num:
    if not isinstance(x, float):
        raise ParseError("(num ...) takes one number")
    return T.Num(x)


def _read_str(x) -> T.Str:
    if type(x) is not str:   # a number, or a bare symbol
        raise ParseError("(str ...) takes one quoted string")
    return T.Str(x)


_OPS = {op.value: op for op in T.PredOp}


def _read_pred(op, a, b) -> T.BuiltinPred:
    if not isinstance(op, _Sym) or op not in _OPS:
        raise ParseError(f"unknown comparison {op!r}")
    return T.BuiltinPred(_OPS[op], (_term(a), _term(b)))


# The storage grammar, each head once: head -> (node class, arity or None
# for any number of arguments, reader of the arguments, writer).  A label L
# is a SYMBOL, a STRING or (pos I); a name N is a SYMBOL or a STRING; OP is
# lt, le, gt, ge or eq.
_HEADS = {
    "num": (T.Num, 1, _read_num, lambda t: f"(num {t.value!r})"),
    "str": (T.Str, 1, _read_str, lambda t: f"(str {quote_string(t.value)})"),
    "atom": (T.Atom, 1, lambda l: T.Atom(_read_label(l)),
             lambda t: f"(atom {_label(t.concept)})"),
    "record": (T.Record, 1, lambda fs: T.Record(_read_fields(fs, T.Term)),
               lambda t: f"(record ({_fields(t.fields)}))"),
    "list": (T.List, None, lambda *ts: T.List(tuple(map(_term, ts))),
             lambda t: "(list" + "".join(" " + _render(i) for i in t.items) + ")"),
    "bottom": (T.Bottom, 1, lambda l: T.Bottom(_read_label(l)),
               lambda t: f"(bottom {_label(t.concept)})"),
    "select": (T.FieldSelection, 2,
               lambda b, l: T.FieldSelection(_term(b), _read_label(l)),
               lambda t: f"(select {_render(t.base)} {_label(t.label)})"),
    "var": (T.Var, 1, lambda n: T.Var(_read_name(n)),
            lambda t: f"(var {_name(t.name)})"),
    "alias": (T.TermAlias, 1, lambda n: T.TermAlias(_read_name(n)),
              lambda t: f"(alias {_name(t.name)})"),
    "numty": (T.NumTy, 0, lambda: T.num_ty, lambda ty: "(numty)"),
    "strty": (T.StrTy, 0, lambda: T.str_ty, lambda ty: "(strty)"),
    "voidty": (T.VoidTy, 0, lambda: T.void_ty, lambda ty: "(voidty)"),
    "listty": (T.ListTy, 1, lambda e: T.ListTy(_type(e)),
               lambda ty: f"(listty {_render(ty.elem)})"),
    "recordty": (T.RecordTy, 1, lambda fs: T.RecordTy(_read_fields(fs, T.Type)),
                 lambda ty: f"(recordty ({_fields(ty.fields)}))"),
    "enumty": (T.EnumTy, 1,
               lambda ls: T.EnumTy(tuple(map(_read_label,
                                             _read_list(ls, "labels")))),
               lambda ty: f"(enumty ({' '.join(map(_label, ty.concepts))}))"),
    "subsetty": (T.SubsetTy, 3,
                 lambda t, ty, p: T.subset_ty(_term(t), _type(ty), _prop(p)),
                 lambda ty: (f"(subsetty {_render(ty.binding_term)} "
                             f"{_render(ty.binding_type)} {_render(ty.prop)})")),
    "tyalias": (T.TyAlias, 1, lambda n: T.TyAlias(_read_name(n)),
                lambda ty: f"(tyalias {_name(ty.name)})"),
    "pred": (T.BuiltinPred, 3, _read_pred,
             lambda p: f"(pred {p.op.value} {' '.join(map(_render, p.args))})"),
    "and": (T.And, 2, lambda a, b: T.And(_prop(a), _prop(b)),
            lambda p: f"(and {_render(p.left)} {_render(p.right)})"),
    "or": (T.Or, 2, lambda a, b: T.Or(_prop(a), _prop(b)),
           lambda p: f"(or {_render(p.left)} {_render(p.right)})"),
    "not": (T.Not, 1, lambda b: T.Not(_prop(b)),
            lambda p: f"(not {_render(p.body)})"),
    "exists": (T.Exists, 3,
               lambda n, ty, b: T.Exists(_read_name(n), _type(ty), _prop(b)),
               lambda p: (f"(exists {_name(p.var)} {_render(p.bound_type)} "
                          f"{_render(p.body)})")),
    "true": (T.TrueProp, 0, lambda: T.TRUE, lambda p: "(true)"),
    "false": (T.FalseProp, 0, lambda: T.FALSE, lambda p: "(false)"),
    "inseq": (T.InSequence, 2,
              lambda t, ts: T.InSequence(
                  _term(t), tuple(map(_term, _read_list(ts, "terms")))),
              lambda p: (f"(inseq {_render(p.item)} "
                         f"({' '.join(map(_render, p.items))}))")),
}

_WRITERS = {cls: write for cls, _, _, write in _HEADS.values()}
