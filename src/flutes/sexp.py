"""S-expression storage form for terms, types, and propositions.

One value per line: the writer never emits a newline, and strings escape
``\\``, ``"``, newline, tab, and carriage return.  That string literal and
the regex token scanner are shared with the declaration syntax.  The
grammar is head-symbol tagged and fully parenthesized:

  term  := (num F) | (str S) | (atom L) | (record ((L term) ...))
         | (list term ...) | (bottom L) | (select term L)
         | (var N) | (alias N)
  type  := (numty) | (strty) | (voidty) | (listty type)
         | (recordty ((L type) ...)) | (enumty (L ...))
         | (subsetty term type prop) | (tyalias N)
  prop  := (pred OP term term) | (and prop prop) | (or prop prop)
         | (not prop) | (exists N type prop) | (true) | (false)
         | (inseq term (term ...))
  L     := SYMBOL | STRING | (pos I)         -- a concept label
  N     := SYMBOL | STRING                   -- variable / alias names
  OP    := lt | le | gt | ge | eq

parse_sexp(render_sexp(x)) == x for every well-formed x.
"""

from __future__ import annotations

import re

from .errors import ParseError
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


def unquote_string(literal: str) -> str:
    """The inverse of quote_string, for a literal that string_tokens
    matched as STRING."""
    body = literal[1:-1]
    if "\\" not in body:
        return body
    return _ESCAPE_SEQ.sub(lambda m: _UNESCAPE[m[1]], body)


def _name(s: str) -> str:
    return s if _SAFE_SYM.match(s) else quote_string(s)


def _label(c: Concept) -> str:
    if c.is_positional:
        return f"(pos {c.position})"
    return _name(c.name)


def render_sexp(x) -> str:
    if isinstance(x, T.Term):
        return _render_term(x)
    if isinstance(x, T.Type):
        return _render_type(x)
    if isinstance(x, T.Prop):
        return _render_prop(x)
    raise TypeError(f"not a renderable value: {x!r}")


def _render_term(t: T.Term) -> str:
    if isinstance(t, T.Num):
        return f"(num {t.value!r})"
    if isinstance(t, T.Str):
        return f"(str {quote_string(t.value)})"
    if isinstance(t, T.Atom):
        return f"(atom {_label(t.concept)})"
    if isinstance(t, T.Record):
        fields = " ".join(f"({_label(c)} {_render_term(v)})" for c, v in t.fields)
        return f"(record ({fields}))"
    if isinstance(t, T.List):
        items = "".join(" " + _render_term(i) for i in t.items)
        return f"(list{items})"
    if isinstance(t, T.Bottom):
        return f"(bottom {_label(t.concept)})"
    if isinstance(t, T.FieldSelection):
        return f"(select {_render_term(t.base)} {_label(t.label)})"
    if isinstance(t, T.Var):
        return f"(var {_name(t.name)})"
    if isinstance(t, T.TermAlias):
        return f"(alias {_name(t.name)})"
    raise TypeError(f"unknown term node: {t!r}")


def _render_type(ty: T.Type) -> str:
    if isinstance(ty, T.NumTy):
        return "(numty)"
    if isinstance(ty, T.StrTy):
        return "(strty)"
    if isinstance(ty, T.VoidTy):
        return "(voidty)"
    if isinstance(ty, T.ListTy):
        return f"(listty {_render_type(ty.elem)})"
    if isinstance(ty, T.RecordTy):
        fields = " ".join(f"({_label(c)} {_render_type(v)})" for c, v in ty.fields)
        return f"(recordty ({fields}))"
    if isinstance(ty, T.EnumTy):
        return f"(enumty ({' '.join(_label(c) for c in ty.concepts)}))"
    if isinstance(ty, T.SubsetTy):
        return (f"(subsetty {_render_term(ty.binding_term)} "
                f"{_render_type(ty.binding_type)} {_render_prop(ty.prop)})")
    if isinstance(ty, T.TyAlias):
        return f"(tyalias {_name(ty.name)})"
    raise TypeError(f"unknown type node: {ty!r}")


def _render_prop(p: T.Prop) -> str:
    if isinstance(p, T.BuiltinPred):
        args = " ".join(_render_term(a) for a in p.args)
        return f"(pred {p.op.value} {args})"
    if isinstance(p, T.And):
        return f"(and {_render_prop(p.left)} {_render_prop(p.right)})"
    if isinstance(p, T.Or):
        return f"(or {_render_prop(p.left)} {_render_prop(p.right)})"
    if isinstance(p, T.Not):
        return f"(not {_render_prop(p.body)})"
    if isinstance(p, T.Exists):
        return (f"(exists {_name(p.var)} {_render_type(p.bound_type)} "
                f"{_render_prop(p.body)})")
    if isinstance(p, T.TrueProp):
        return "(true)"
    if isinstance(p, T.FalseProp):
        return "(false)"
    if isinstance(p, T.InSequence):
        items = " ".join(_render_term(i) for i in p.items)
        return f"(inseq {_render_term(p.item)} ({items}))"
    raise TypeError(f"unknown prop node: {p!r}")


# ---------------------------------------------------------------------------
# scanning, shared with the declaration syntax


def string_tokens(raw: str = "") -> str:
    """Pattern alternatives for the string literal: a well-formed literal
    (STRING), or else the longest well-formed start of one (badstring),
    which `scan` reports.  `raw` names characters besides the quote and the
    backslash that may not appear unescaped."""
    char = '[^"\\\\' + re.escape(raw) + ']*'
    body = f'{char}(?:\\\\[{re.escape("".join(_UNESCAPE))}]{char})*'
    return f'(?P<STRING>"{body}")|(?P<badstring>"{body})'


def token_pattern(skip: str, *tokens: str) -> re.Pattern:
    """A pattern for `scan`: `skip` (whitespace, comments), or one of the
    token alternatives followed by any whitespace, which then costs no
    match of its own."""
    return re.compile(f"(?P<skip>{skip})|(?:{'|'.join(tokens)})\\s*")


def scan(pattern: re.Pattern, text: str, where=None):
    """The tokens of `text` as (kind, value, offset) triples.

    Each token alternative of `pattern` is a group named after the kind of
    token it matches, and some alternative must match at every offset.  A
    STRING is unquoted and a NUMBER converted by float; `badstring` and
    `bad` (any other character) are errors.  `where` maps an offset to the
    (line, col) that a ParseError carries.
    """
    def error(message, offset):
        return ParseError(message, *(where(offset) if where else ()))

    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind == "STRING":
            yield kind, unquote_string(m[kind]), m.start()
        elif kind == "NUMBER":
            raw = m[kind]
            try:
                yield kind, float(raw), m.start()
            except ValueError:
                raise error(f"invalid number {raw!r}", m.start()) from None
        elif kind == "badstring":
            end = m.end(kind)
            if text.startswith("\\", end):
                raise error("bad string escape", end + 1)
            raise error("unterminated string", m.start())
        elif kind == "bad":
            raise error(f"unexpected character {m[kind]!r}", m.start())
        elif kind != "skip":
            yield kind, m[kind], m.start()


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
    tokens = scan(_TOKEN, text)
    top: list = []
    items, open_lists = top, []
    for kind, value, _ in tokens:
        if not open_lists and (top or kind == "CLOSE"):
            for _ in tokens:        # a lexical error further on comes first
                pass
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


_TERM_HEADS = {"num", "str", "atom", "record", "list", "bottom", "select",
               "var", "alias"}
_TYPE_HEADS = {"numty", "strty", "voidty", "listty", "recordty", "enumty",
               "subsetty", "tyalias"}
_PROP_HEADS = {"pred", "and", "or", "not", "exists", "true", "false", "inseq"}


def parse_sexp(text: str):
    """Parse one term, type, or proposition from its storage form."""
    return _build(read_node(text))


def build_value(node):
    """Construct a term/type/prop from a node produced by read_node."""
    return _build(node)


def _head(node) -> str:
    if not isinstance(node, list) or not node or not isinstance(node[0], _Sym):
        raise ParseError(f"expected a tagged list, got {node!r}")
    return str(node[0])


def _build(node):
    head = _head(node)
    if head in _TERM_HEADS:
        return _build_term(node)
    if head in _TYPE_HEADS:
        return _build_type(node)
    if head in _PROP_HEADS:
        return _build_prop(node)
    raise ParseError(f"unknown head symbol {head!r}")


def _expect(node, head, arity=None):
    if _head(node) != head:
        raise ParseError(f"expected ({head} ...), got {node!r}")
    if arity is not None and len(node) - 1 != arity:
        raise ParseError(f"({head} ...) takes {arity} argument(s)")
    return node[1:]


def _build_label(node) -> Concept:
    if isinstance(node, list):
        (idx,) = _expect(node, "pos", 1)
        if not isinstance(idx, float) or idx != int(idx) or idx < 0:
            raise ParseError(f"bad positional label {node!r}")
        return positional(int(idx))
    if isinstance(node, str):
        return mk_concept(str(node))
    raise ParseError(f"bad label {node!r}")


def _build_name(node) -> str:
    if isinstance(node, str):
        return str(node)
    raise ParseError(f"expected a name, got {node!r}")


def _build_term(node) -> T.Term:
    head = _head(node)
    args = node[1:]
    if head == "num":
        if len(args) != 1 or not isinstance(args[0], float):
            raise ParseError("(num ...) takes one number")
        return T.Num(args[0])
    if head == "str":
        if len(args) != 1 or not isinstance(args[0], str) or isinstance(args[0], _Sym):
            raise ParseError("(str ...) takes one quoted string")
        return T.Str(str(args[0]))
    if head == "atom":
        (label,) = _expect(node, "atom", 1)
        return T.Atom(_build_label(label))
    if head == "record":
        (fields,) = _expect(node, "record", 1)
        if not isinstance(fields, list):
            raise ParseError("(record ...) takes a field list")
        pairs = []
        for f in fields:
            if not isinstance(f, list) or len(f) != 2:
                raise ParseError(f"bad record field {f!r}")
            pairs.append((_build_label(f[0]), _build_term(f[1])))
        return T.Record(T.sort_fields(pairs))
    if head == "list":
        return T.List(tuple(_build_term(a) for a in args))
    if head == "bottom":
        (label,) = _expect(node, "bottom", 1)
        return T.Bottom(_build_label(label))
    if head == "select":
        base, label = _expect(node, "select", 2)
        return T.FieldSelection(_build_term(base), _build_label(label))
    if head == "var":
        (name,) = _expect(node, "var", 1)
        return T.Var(_build_name(name))
    if head == "alias":
        (name,) = _expect(node, "alias", 1)
        return T.TermAlias(_build_name(name))
    raise ParseError(f"unknown term head {head!r}")


def _build_type(node) -> T.Type:
    head = _head(node)
    if head == "numty":
        _expect(node, "numty", 0)
        return T.num_ty
    if head == "strty":
        _expect(node, "strty", 0)
        return T.str_ty
    if head == "voidty":
        _expect(node, "voidty", 0)
        return T.void_ty
    if head == "listty":
        (elem,) = _expect(node, "listty", 1)
        return T.ListTy(_build_type(elem))
    if head == "recordty":
        (fields,) = _expect(node, "recordty", 1)
        if not isinstance(fields, list):
            raise ParseError("(recordty ...) takes a field list")
        pairs = []
        for f in fields:
            if not isinstance(f, list) or len(f) != 2:
                raise ParseError(f"bad record-type field {f!r}")
            pairs.append((_build_label(f[0]), _build_type(f[1])))
        return T.RecordTy(T.sort_fields(pairs))
    if head == "enumty":
        (labels,) = _expect(node, "enumty", 1)
        if not isinstance(labels, list) or not labels:
            raise ParseError("(enumty ...) takes a nonempty label list")
        return T.EnumTy(tuple(_build_label(l) for l in labels))
    if head == "subsetty":
        bt, bty, prop = _expect(node, "subsetty", 3)
        return T.subset_ty(_build_term(bt), _build_type(bty), _build_prop(prop))
    if head == "tyalias":
        (name,) = _expect(node, "tyalias", 1)
        return T.TyAlias(_build_name(name))
    raise ParseError(f"unknown type head {head!r}")


_OPS = {op.value: op for op in T.PredOp}


def _build_prop(node) -> T.Prop:
    head = _head(node)
    if head == "pred":
        if len(node) != 4 or not isinstance(node[1], _Sym) or str(node[1]) not in _OPS:
            raise ParseError("(pred OP t1 t2) expected")
        return T.BuiltinPred(_OPS[str(node[1])],
                             (_build_term(node[2]), _build_term(node[3])))
    if head == "and":
        a, b = _expect(node, "and", 2)
        return T.And(_build_prop(a), _build_prop(b))
    if head == "or":
        a, b = _expect(node, "or", 2)
        return T.Or(_build_prop(a), _build_prop(b))
    if head == "not":
        (body,) = _expect(node, "not", 1)
        return T.Not(_build_prop(body))
    if head == "exists":
        name, ty, body = _expect(node, "exists", 3)
        return T.Exists(_build_name(name), _build_type(ty), _build_prop(body))
    if head == "true":
        _expect(node, "true", 0)
        return T.TRUE
    if head == "false":
        _expect(node, "false", 0)
        return T.FALSE
    if head == "inseq":
        item, items = _expect(node, "inseq", 2)
        if not isinstance(items, list):
            raise ParseError("(inseq t (ts ...)) expected")
        return T.InSequence(_build_term(item), tuple(_build_term(i) for i in items))
    raise ParseError(f"unknown prop head {head!r}")
