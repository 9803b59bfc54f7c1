import random

import pytest
from hypothesis import given, settings, strategies as st

from flutes.errors import ParseError
from flutes.sexp import parse_sexp, render_sexp
from flutes.taxonomy import Taxonomy, mk_concept, positional
from flutes import terms as T

import termgen


@pytest.fixture
def tax():
    return Taxonomy()


class TestRendering:
    def test_record_form(self, tax):
        r = T.record(tax, [("name", T.string("Joe"))])
        assert render_sexp(r) == '(record ((name (str "Joe"))))'

    def test_unsafe_names_are_quoted(self):
        assert render_sexp(T.Var("with space")) == '(var "with space")'
        assert render_sexp(T.Str('a"b')) == '(str "a\\"b")'
        assert render_sexp(T.Str("a\nb")) == '(str "a\\nb")'

    def test_single_line(self, tax):
        r = T.record(tax, [("note", T.string("line1\nline2"))])
        assert "\n" not in render_sexp(r)

    def test_positional_labels(self):
        t = T.triple("orig-of", T.term_name("joe"), T.term_name("t1"))
        s = render_sexp(t)
        assert "(pos 0)" in s and "(pos 1)" in s

    def test_nullary_types(self):
        assert render_sexp(T.num_ty) == "(numty)"
        assert render_sexp(T.str_ty) == "(strty)"
        assert render_sexp(T.void_ty) == "(voidty)"


class TestParsing:
    def test_errors(self):
        for bad in ["", "(", ")", "(record", '(str "unterminated',
                    "(num x)", "(frobnicate 1)", "(num 1) (num 2)",
                    '(str "bad \\z escape")', "(pred zz (num 1) (num 2))",
                    "(str x)"]:
            with pytest.raises(ParseError):
                parse_sexp(bad)

    def test_parse_resorts_record_fields(self):
        t = parse_sexp('(record ((name (str "Joe")) (dob (str "x"))))')
        assert [c.name for c, _ in t.fields] == ["dob", "name"]

    def test_symbol_and_string_names_coincide(self):
        assert parse_sexp("(var x)") == parse_sexp('(var "x")')
        assert parse_sexp("(atom check)") == parse_sexp('(atom "check")')


def examples(tax):
    joe = T.record(tax, [("name", T.string("Joe")),
                         ("birth_date", T.string("1984-06-27"))])
    yield joe
    yield T.triple("orig-of", T.term_name("joe"), T.term_name("t1"))
    yield T.term_list([T.num(1), T.string("a"), T.atom("check")])
    yield T.Bottom(mk_concept("owner"))
    yield T.FieldSelection(T.Var("p"), mk_concept("name"))
    yield T.FieldSelection(T.Var("s"), positional(1))
    yield T.List(())
    yield T.record(tax, [])
    yield T.num_ty
    yield T.list_ty(T.record_ty(tax, [("a", T.num_ty)]))
    yield T.enum_ty(["check", "cc"])
    yield T.triple_ty("orig-of", T.type_name("person"), T.type_name("trans"))
    yield T.subset_ty(
        T.triple("fi-related", T.Var("p"), T.Var("q")),
        T.triple_ty("fi-related", T.type_name("person"), T.type_name("person")),
        T.exists("t", T.type_name("trans"),
                 T.conj(T.equals(T.triple("orig-of", T.Var("p"), T.Var("t")),
                                 T.Var("s")),
                        T.TRUE)))
    yield T.in_sequence(T.num(1), [T.num(1), T.num(2)])
    yield T.disj(T.neg(T.FALSE), T.less_than(T.Var("x"), T.num(10)))


class TestRoundTrip:
    def test_fixed_examples(self, tax):
        for x in examples(tax):
            assert parse_sexp(render_sexp(x)) == x

    def test_seeded_random_terms(self):
        rng = random.Random(7)
        tax, pool = termgen.make_taxonomy(rng)
        for _ in range(300):
            t = termgen.random_term(rng, tax, pool, depth=3)
            assert parse_sexp(render_sexp(t)) == t

    def test_seeded_random_types_and_props(self):
        rng = random.Random(8)
        tax, pool = termgen.make_taxonomy(rng)
        for _ in range(150):
            ty = termgen.random_type(rng, tax, pool, depth=3)
            assert parse_sexp(render_sexp(ty)) == ty
            p = termgen.random_prop(rng, tax, pool, depth=3)
            assert parse_sexp(render_sexp(p)) == p

    @settings(max_examples=200)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_float_values_survive(self, x):
        assert parse_sexp(render_sexp(T.Num(x))) == T.Num(x)

    @settings(max_examples=200)
    @given(st.text(max_size=40))
    def test_arbitrary_strings_survive(self, s):
        assert parse_sexp(render_sexp(T.Str(s))) == T.Str(s)
        t = parse_sexp(render_sexp(T.Str(s)))
        assert "\n" not in render_sexp(t)
