import io
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from flutes import sexp
from flutes.cli import run_session
from flutes.errors import ParseError
from flutes.sexp import parse_sexp, quote_string, read_node, render_sexp
from flutes.store import Store
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
                    "(str x)", "(num 1e999)", "(num -1e400)"]:
            with pytest.raises(ParseError):
                parse_sexp(bad)

    def test_constructor_rules_surface_as_parse_errors(self):
        # the empty concept name and the captured binding variable are
        # refused by mk_concept and subset_ty, not by the reader itself
        for bad in ['(atom "")', '(record (("" (num 1))))',
                    "(subsetty (var x) (numty) (exists x (numty) (true)))"]:
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
    yield T.List((T.num_f(1), T.string("a"), T.atom("check")))
    yield T.Bottom(mk_concept("owner"))
    yield T.FieldSelection(T.Var("p"), mk_concept("name"))
    yield T.FieldSelection(T.Var("s"), positional(1))
    yield T.List(())
    yield T.record(tax, [])
    yield T.num_ty
    yield T.ListTy(T.record_ty(tax, [("a", T.num_ty)]))
    yield T.enum_ty(["check", "cc"])
    yield T.triple_ty("orig-of", T.type_name("person"), T.type_name("trans"))
    yield T.subset_ty(
        T.triple("fi-related", T.Var("p"), T.Var("q")),
        T.triple_ty("fi-related", T.type_name("person"), T.type_name("person")),
        T.exists("t", T.type_name("trans"),
                 T.conj(T.equals(T.triple("orig-of", T.Var("p"), T.Var("t")),
                                 T.Var("s")),
                        T.TRUE)))
    yield T.InSequence(T.num_f(1), (T.num_f(1), T.num_f(2)))
    yield T.disj(T.Not(T.FALSE),
                 T.BuiltinPred(T.PredOp.LT, (T.Var("x"), T.num_f(10))))


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


# One well-formed example per head of the storage grammar, with slots {0},
# {1}, ... for the arguments that are themselves values, and the category
# of each slot: t a term, y a type, p a proposition.
HEAD_EXAMPLES = {
    "num": ("(num 1.5)", ""),
    "str": ('(str "s")', ""),
    "atom": ("(atom check)", ""),
    "record": ("(record (((pos 0) {0}) (a {1})))", "tt"),
    "list": ("(list {0} {1})", "tt"),
    "bottom": ("(bottom dob)", ""),
    "select": ("(select {0} name)", "t"),
    "var": ("(var x)", ""),
    "alias": ('(alias "a b")', ""),
    "numty": ("(numty)", ""),
    "strty": ("(strty)", ""),
    "voidty": ("(voidty)", ""),
    "listty": ("(listty {0})", "y"),
    "recordty": ("(recordty ((a {0}) (b {1})))", "yy"),
    "enumty": ("(enumty (cash check))", ""),
    "subsetty": ("(subsetty {0} {1} {2})", "typ"),
    "tyalias": ("(tyalias person)", ""),
    "pred": ("(pred lt {0} {1})", "tt"),
    "and": ("(and {0} {1})", "pp"),
    "or": ("(or {0} {1})", "pp"),
    "not": ("(not {0})", "p"),
    "exists": ("(exists k {0} {1})", "yp"),
    "true": ("(true)", ""),
    "false": ("(false)", ""),
    "inseq": ("(inseq {0} ({1} {2}))", "ttt"),
}
FILL = {"t": "(num 1.0)", "y": "(numty)", "p": "(true)"}


def example(head, **replace):
    template, slots = HEAD_EXAMPLES[head]
    return template.format(*(replace.get(f"s{i}", FILL[c])
                             for i, c in enumerate(slots)))


def show(node) -> str:
    """The text of a node from read_node."""
    if isinstance(node, list):
        return "(" + " ".join(map(show, node)) + ")"
    if isinstance(node, float):
        return repr(node)
    return quote_string(node) if type(node) is str else str(node)


ARITY = {head: len(read_node(example(head))) - 1 for head in HEAD_EXAMPLES}
WRONG_CATEGORY = [(head, i, wrong)
                  for head, (_, slots) in HEAD_EXAMPLES.items()
                  for i, category in enumerate(slots)
                  for other, wrong in FILL.items() if other != category]


def test_every_head_has_an_example():
    assert set(HEAD_EXAMPLES) == set(sexp._HEADS)


@pytest.mark.parametrize("head", HEAD_EXAMPLES)
def test_example_round_trips(head):
    x = parse_sexp(example(head))
    assert render_sexp(x).startswith(f"({head}")
    assert parse_sexp(render_sexp(x)) == x


@pytest.mark.parametrize("head", [h for h in HEAD_EXAMPLES if h != "list"])
def test_one_argument_too_many(head):
    node = read_node(example(head))
    with pytest.raises(ParseError):
        parse_sexp(show(node + [node[-1] if ARITY[head] else 1.0]))


@pytest.mark.parametrize("head", [h for h in HEAD_EXAMPLES
                                  if h != "list" and ARITY[h]])
def test_one_argument_too_few(head):
    with pytest.raises(ParseError):
        parse_sexp(show(read_node(example(head))[:-1]))


@pytest.mark.parametrize("head,slot,wrong", WRONG_CATEGORY)
def test_wrong_category_in_each_position(head, slot, wrong):
    with pytest.raises(ParseError, match="expected a "):
        parse_sexp(example(head, **{f"s{slot}": wrong}))


@pytest.mark.parametrize("text,label", [
    ("(record ((a (num 1)) (a (num 2))))", "a"),
    ("(recordty ((a (numty)) (a (numty))))", "a"),
    ('(record (((pos 0) (num 1)) (b (num 2)) ((pos 0) (str "x"))))', "(pos 0)"),
    ('(recordty ((a (numty)) ("a" (strty))))', "a"),
])
def test_repeated_labels_are_refused(text, label):
    with pytest.raises(ParseError, match=re.escape(f"repeated label {label}")):
        parse_sexp(text)


def test_defclass_with_repeated_labels_defines_no_class():
    store, out = Store(), io.StringIO()
    lines = ["defclass c (recordty ((a (numty)) (a (numty))))",
             'insert x := {"a"=1};', "find-members"]
    assert run_session(store, lines, out, timings=False,
                       stop_on_error=False) == 0
    assert out.getvalue().startswith("error\t")
    assert "repeated label a" in out.getvalue().splitlines()[0]
    assert store.classes == {}
