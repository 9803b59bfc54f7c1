"""The two token grammars, pinned input by input.

Declarations and store records are lexed by one regex scanner with a
pattern per grammar.  The tables below fix what each grammar makes of its
input: the tokens (kind, value, line, col) of a declaration program, the
nodes of an S-expression (symbols and strings kept apart), or the
`ParseError` message, with 1-based line and column for declarations.
"""

import pytest
from hypothesis import given, settings, strategies as st

from flutes.errors import ParseError
from flutes.sexp import quote_string, read_node
from flutes.syntax import parse_program, tokenize
from flutes import terms as T

DECL_CASES = [
    ('joe := {"name"="Joe"};',
     [('IDENT', 'joe', 1, 1), ('PUNCT', ':=', 1, 5), ('PUNCT', '{', 1, 8), ('STRING', 'name', 1, 9), ('PUNCT', '=', 1, 15), ('STRING', 'Joe', 1, 16), ('PUNCT', '}', 1, 21), ('PUNCT', ';', 1, 22), ('EOF', None, 1, 23)]),
    ('x := p(q, 5);',
     [('IDENT', 'x', 1, 1), ('PUNCT', ':=', 1, 3), ('IDENT', 'p', 1, 6), ('PUNCT', '(', 1, 7), ('IDENT', 'q', 1, 8), ('PUNCT', ',', 1, 9), ('NUMBER', 5.0, 1, 11), ('PUNCT', ')', 1, 12), ('PUNCT', ';', 1, 13), ('EOF', None, 1, 14)]),
    ('joe:={}',
     [('IDENT', 'joe', 1, 1), ('PUNCT', ':=', 1, 4), ('PUNCT', '{', 1, 6), ('PUNCT', '}', 1, 7), ('EOF', None, 1, 8)]),
    ('t := {"a" = 500.0, "b" = -3.5, "c" = 1e5, "d" = 2.5E-3};',
     [('IDENT', 't', 1, 1), ('PUNCT', ':=', 1, 3), ('PUNCT', '{', 1, 6), ('STRING', 'a', 1, 7), ('PUNCT', '=', 1, 11), ('NUMBER', 500.0, 1, 13), ('PUNCT', ',', 1, 18), ('STRING', 'b', 1, 20), ('PUNCT', '=', 1, 24), ('NUMBER', -3.5, 1, 26), ('PUNCT', ',', 1, 30), ('STRING', 'c', 1, 32), ('PUNCT', '=', 1, 36), ('NUMBER', 100000.0, 1, 38), ('PUNCT', ',', 1, 41), ('STRING', 'd', 1, 43), ('PUNCT', '=', 1, 47), ('NUMBER', 0.0025, 1, 49), ('PUNCT', '}', 1, 55), ('PUNCT', ';', 1, 56), ('EOF', None, 1, 57)]),
    ('x := orig-of(a-3, -3.5);',
     [('IDENT', 'x', 1, 1), ('PUNCT', ':=', 1, 3), ('IDENT', 'orig-of', 1, 6), ('PUNCT', '(', 1, 13), ('IDENT', 'a-3', 1, 14), ('PUNCT', ',', 1, 17), ('NUMBER', -3.5, 1, 19), ('PUNCT', ')', 1, 23), ('PUNCT', ';', 1, 24), ('EOF', None, 1, 25)]),
    ('x := 1-2;',
     [('IDENT', 'x', 1, 1), ('PUNCT', ':=', 1, 3), ('NUMBER', 1.0, 1, 6), ('NUMBER', -2.0, 1, 7), ('PUNCT', ';', 1, 9), ('EOF', None, 1, 10)]),
    ('x := "a\\\\b\\"c\\nd\\te\\rf";',
     [('IDENT', 'x', 1, 1), ('PUNCT', ':=', 1, 3), ('STRING', 'a\\b"c\nd\te\rf', 1, 6), ('PUNCT', ';', 1, 24), ('EOF', None, 1, 25)]),
    ('x := "(;)#";',
     [('IDENT', 'x', 1, 1), ('PUNCT', ':=', 1, 3), ('STRING', '(;)#', 1, 6), ('PUNCT', ';', 1, 12), ('EOF', None, 1, 13)]),
    ('# a comment\nx := 1; # trailing\n  y := 2;',
     [('IDENT', 'x', 2, 1), ('PUNCT', ':=', 2, 3), ('NUMBER', 1.0, 2, 6), ('PUNCT', ';', 2, 7), ('IDENT', 'y', 3, 3), ('PUNCT', ':=', 3, 5), ('NUMBER', 2.0, 3, 8), ('PUNCT', ';', 3, 9), ('EOF', None, 3, 10)]),
    ('x\xa0:=\u2003"y"\u3000;\n\x0bz := 1;',
     [('IDENT', 'x', 1, 1), ('PUNCT', ':=', 1, 3), ('STRING', 'y', 1, 6), ('PUNCT', ';', 1, 10), ('IDENT', 'z', 2, 2), ('PUNCT', ':=', 2, 4), ('NUMBER', 1.0, 2, 7), ('PUNCT', ';', 2, 8), ('EOF', None, 2, 9)]),
    ('x := "bad \\z";',
     '1:12: bad string escape'),
    ('x := "ends in \\',
     '1:16: bad string escape'),
    ('x := "unterminated',
     '1:6: unterminated string'),
    ('x := "raw\nnewline";',
     '1:6: unterminated string'),
    ('x := "bad \\z\n',
     '1:12: bad string escape'),
    ('a := 1;\nx := 1.2.3;',
     "2:6: invalid number '1.2.3'"),
    ('x := 2e;',
     "1:6: invalid number '2e'"),
    ('x := 1_000;',
     [('IDENT', 'x', 1, 1), ('PUNCT', ':=', 1, 3), ('NUMBER', 1.0, 1, 6), ('IDENT', '_000', 1, 7), ('PUNCT', ';', 1, 11), ('EOF', None, 1, 12)]),
    ('x := $;',
     "1:6: unexpected character '$'"),
    ('x := -a;',
     "1:6: unexpected character '-'"),
    ('a := "x";\nb := {"k" "v"};',
     [('IDENT', 'a', 1, 1), ('PUNCT', ':=', 1, 3), ('STRING', 'x', 1, 6), ('PUNCT', ';', 1, 9), ('IDENT', 'b', 2, 1), ('PUNCT', ':=', 2, 3), ('PUNCT', '{', 2, 6), ('STRING', 'k', 2, 7), ('STRING', 'v', 2, 11), ('PUNCT', '}', 2, 14), ('PUNCT', ';', 2, 15), ('EOF', None, 2, 16)]),
    ('joe := ;',
     [('IDENT', 'joe', 1, 1), ('PUNCT', ':=', 1, 5), ('PUNCT', ';', 1, 8), ('EOF', None, 1, 9)]),
    ('a := "x"; a := "y";',
     [('IDENT', 'a', 1, 1), ('PUNCT', ':=', 1, 3), ('STRING', 'x', 1, 6), ('PUNCT', ';', 1, 9), ('IDENT', 'a', 1, 11), ('PUNCT', ':=', 1, 13), ('STRING', 'y', 1, 16), ('PUNCT', ';', 1, 19), ('EOF', None, 1, 20)]),
]


PARSE_ERRORS = [
    ('joe:={}', "1:8: expected ';', got end of input"),
    ('x := 1-2;', "1:7: expected ';', got -2.0"),
    ('x := "bad \\z";', '1:12: bad string escape'),
    ('x := "ends in \\', '1:16: bad string escape'),
    ('x := "unterminated', '1:6: unterminated string'),
    ('x := "raw\nnewline";', '1:6: unterminated string'),
    ('x := "bad \\z\n', '1:12: bad string escape'),
    ('a := 1;\nx := 1.2.3;', "2:6: invalid number '1.2.3'"),
    ('x := 2e;', "1:6: invalid number '2e'"),
    ('x := 1_000;', "1:7: expected ';', got '_000'"),
    ('x := $;', "1:6: unexpected character '$'"),
    ('x := -a;', "1:6: unexpected character '-'"),
    ('a := "x";\nb := {"k" "v"};', "2:11: expected ':' or '=', got 'v'"),
    ('joe := ;', "1:8: expected a term, got ';'"),
    ('a := "x"; a := "y";', "1:11: duplicate declaration of 'a'"),
    ('x := {"a" = 1e999};', '1:13: number out of range'),
    ('x := f(\n  -1e400);', '2:3: number out of range'),
]


SEXP_CASES = [
    ('(record ((name (str "Joe"))))',
     [('sym', 'record'), [[('sym', 'name'), [('sym', 'str'), ('str', 'Joe')]]]]),
    ('((num -3.5) (num 1e-05) (num +2) (num 1_000))',
     [[('sym', 'num'), -3.5], [('sym', 'num'), 1e-05], [('sym', 'num'), 2.0], [('sym', 'num'), 1000.0]]),
    ('(alias a#b)',
     [('sym', 'alias'), ('sym', 'a#b')]),
    ('((alias fi_related#0123abcdef01) (x a.b c:d e/f))',
     [[('sym', 'alias'), ('sym', 'fi_related#0123abcdef01')], [('sym', 'x'), ('sym', 'a.b'), ('sym', 'c:d'), ('sym', 'e/f')]]),
    ('((var x) (var "x"))',
     [[('sym', 'var'), ('sym', 'x')], [('sym', 'var'), ('str', 'x')]]),
    ('(a (b c)',
     'unbalanced parenthesis'),
    ('(a ("x"',
     'unbalanced parenthesis'),
    ('(pred eq orig-of -3.5 - + -a)',
     [('sym', 'pred'), ('sym', 'eq'), ('sym', 'orig-of'), -3.5, ('sym', '-'), ('sym', '+'), ('sym', '-a')]),
    ('(str "a\\\\b\\"c\\nd\\te\\rf")',
     [('sym', 'str'), ('str', 'a\\b"c\nd\te\rf')]),
    ('("(" ")" "raw\nnewline")',
     [('str', '('), ('str', ')'), ('str', 'raw\nnewline')]),
    ('(a\xa0b\u2003c)',
     [('sym', 'a'), ('sym', 'b'), ('sym', 'c')]),
    ('(a"b"c)',
     [('sym', 'a'), ('str', 'b'), ('sym', 'c')]),
    ('(a$b)',
     [('sym', 'a$b')]),
    ('(str "bad \\z")',
     'bad string escape'),
    ('(str "unterminated',
     'unterminated string'),
    ('(str "ends in \\',
     'bad string escape'),
    ('(num 1.2.3)',
     "invalid number '1.2.3'"),
    ('(num 1x)',
     "invalid number '1x'"),
    (')',
     "unexpected ')'"),
    ('(',
     'unbalanced parenthesis'),
    ('',
     'unexpected end of input'),
    ('(a) (b)',
     'trailing tokens after S-expression'),
    ('(a) )',
     'trailing tokens after S-expression'),
    ('(a) (b "bad \\z")',
     'bad string escape'),
]


def shape(node):
    """A node with each symbol and string tagged, so the two stay apart."""
    if isinstance(node, list):
        return [shape(n) for n in node]
    if isinstance(node, float):
        return node
    return ("str" if type(node) is str else "sym", str(node))


def outcome(fn, text):
    try:
        return fn(text)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("text,expected", DECL_CASES)
def test_declaration_tokens(text, expected):
    assert outcome(lambda s: [(t.kind, t.value, t.line, t.col)
                              for t in tokenize(s)], text) == expected


@pytest.mark.parametrize("text,expected", PARSE_ERRORS)
def test_declaration_errors(text, expected):
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert str(exc.value) == expected
    line, col = expected.split(":")[:2]
    assert (exc.value.line, exc.value.col) == (int(line), int(col))


@pytest.mark.parametrize("text,expected", SEXP_CASES)
def test_sexp_nodes(text, expected):
    assert outcome(lambda s: shape(read_node(s)), text) == expected


@settings(max_examples=300)
@given(st.text(max_size=40))
def test_declaration_strings_use_the_storage_literal(s):
    (d,) = parse_program(f"x := {quote_string(s)};")
    assert d.body == T.Str(s)
