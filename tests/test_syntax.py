import gc

import pytest

from flutes.benchgen import GenConfig, generate
from flutes.errors import MalformedRecordError, ParseError
from flutes.syntax import Declaration, parse_program
from flutes.taxonomy import Taxonomy, mk_concept
from flutes import terms as T


CORPUS = """
joe := {"name"="Joe", "birth_date"="1984-06-27"};
sue := {"name"="Sue", "dob"="1941-12-07"};
t1 := {"amount" = 500.0, "type"=check()};
o1 := orig-of(joe, t1);
r1 := recv-of(sue, t1);
"""


class TestPrograms:
    def test_object_declaration(self):
        (d,) = parse_program('joe := {"name"="Joe", "birth_date"="1984-06-27"};')
        assert d == Declaration("joe", T.record(Taxonomy(), [
            ("name", T.string("Joe")),
            ("birth_date", T.string("1984-06-27"))]))

    def test_relation_declaration(self):
        decls = parse_program('o1 := orig-of(joe, t1);')
        assert decls[0].body == T.triple("orig-of", T.term_name("joe"),
                                         T.term_name("t1"))

    def test_nullary_application_is_atom(self):
        (d,) = parse_program('t1 := {"amount" = 500.0, "type"=check()};')
        fields = dict((c.name, v) for c, v in d.body.fields)
        assert fields["amount"] == T.num_f(500.0)
        assert fields["type"] == T.atom("check")

    def test_full_corpus(self):
        decls = parse_program(CORPUS)
        assert [d.name for d in decls] == ["joe", "sue", "t1", "o1", "r1"]

    def test_both_field_separators(self):
        text = ('sue_grafton := {"name" : "Sue Grafton", '
                '"dob" : "1941-12-07", "birth-place" = Kentucky};')
        (d,) = parse_program(text)
        fields = dict((c.name, v) for c, v in d.body.fields)
        assert fields["name"] == T.string("Sue Grafton")
        assert fields["birth-place"] == T.atom("Kentucky")

    def test_bare_ident_is_alias_when_declared(self):
        text = 'kentucky := {"name"="Kentucky"}; sue := {"birth-place" = kentucky};'
        decls = parse_program(text)
        fields = dict((c.name, v) for c, v in decls[1].body.fields)
        assert fields["birth-place"] == T.term_name("kentucky")

    def test_bare_ident_naming_a_later_declaration_is_alias(self):
        text = ('sue := {"birth-place" = kentucky, "home" = Ohio};'
                'kentucky := {"name"="Kentucky"};')
        decls = parse_program(text)
        fields = dict((c.name, v) for c, v in decls[0].body.fields)
        assert fields["birth-place"] == T.term_name("kentucky")
        assert fields["home"] == T.atom("Ohio")

    def test_known_names_from_store_count_as_declared(self):
        (d,) = parse_program('sue := {"birth-place" = kentucky};',
                             known={"kentucky"})
        fields = dict((c.name, v) for c, v in d.body.fields)
        assert fields["birth-place"] == T.term_name("kentucky")

    def test_argument_idents_are_forward_aliases(self):
        # the referent may arrive later; the term stays untyped until then
        (d,) = parse_program('r1 := recv-of(sue, t2);')
        assert d.body == T.triple("recv-of", T.term_name("sue"),
                                  T.term_name("t2"))

    def test_nested_applications_and_comments(self):
        text = """
        # objects first
        x := p(q(a, 5), {"k": "v"});  # trailing comment
        """
        (d,) = parse_program(text)
        head, args = T.pred_app_parts(d.body)
        assert head == mk_concept("p")
        inner_head, inner_args = T.pred_app_parts(args[0])
        assert inner_head == mk_concept("q")
        assert inner_args == (T.term_name("a"), T.num_f(5))

    def test_empty_record_and_negative_number(self):
        decls = parse_program('a := {}; b := {"n" = -3.5};')
        assert decls[0].body == T.Record(())
        assert decls[1].body.fields[0][1] == T.num_f(-3.5)

    def test_determinism(self):
        assert parse_program(CORPUS) == parse_program(CORPUS)


class TestErrors:
    @pytest.mark.parametrize("text", [
        'joe := ;', 'joe {"a"="b"};', 'joe := {"a"="b"}',
        'joe := {"a" "b"};', 'joe := {a = "b"};', 'joe := "x" extra;',
        'joe := {"a"="b",};', '1 := "x";', 'joe := "unterminated;',
        'joe := p(;', 'joe := $;',
    ])
    def test_syntax_errors(self, text):
        with pytest.raises(ParseError):
            parse_program(text)

    def test_duplicate_declaration(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_program('a := "x"; a := "y";')

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse_program('a := "x";\nb := {"k" "v"};')
        assert exc.value.line == 2
        assert "2:" in str(exc.value)

    def test_equivalent_field_labels_rejected(self):
        tax = Taxonomy()
        tax.same_as(mk_concept("dob"), mk_concept("birth_date"))
        with pytest.raises(ParseError, match="equivalent"):
            parse_program('x := {"dob"="a", "birth_date"="b"};', tax)


class TestRecordShapes:
    """A record's labels are interned, checked and sorted once per shape:
    the taxonomy memoises them (`Taxonomy.shapes`) until its next edit."""

    RECORD = 'x := {"dob"="1", "birth_date"="2"};'

    def refused_at_brace(self, tax):
        with pytest.raises(ParseError, match="equivalent") as exc:
            parse_program(self.RECORD, tax)
        assert (exc.value.line, exc.value.col) == (1, 6)

    def test_a_synonym_edit_refuses_a_shape_parsed_before(self):
        tax = Taxonomy()
        first = parse_program(self.RECORD, tax)
        assert tax.shapes
        tax.same_as(mk_concept("dob"), mk_concept("birth_date"))
        assert not tax.shapes
        self.refused_at_brace(tax)
        # a refused shape is not remembered: it is refused again
        self.refused_at_brace(tax)
        assert first[0].body.fields[0][0] == mk_concept("birth_date")

    def test_labels_made_mutual_through_is_a_edges(self):
        # is-a edges cannot make two labels mutual on their own (that is a
        # cycle), but they can once a synonym joins their ends; each edit
        # clears the memo
        tax = Taxonomy()
        parse_program(self.RECORD, tax)
        tax.add_is_a(mk_concept("dob"), mk_concept("born"))
        assert not tax.shapes
        tax.add_is_a(mk_concept("born"), mk_concept("birth_date"))
        assert parse_program(self.RECORD, tax)
        tax.same_as(mk_concept("dob"), mk_concept("birth_date"))
        self.refused_at_brace(tax)

    def test_one_shape_in_any_source_order_gives_one_record(self):
        tax = Taxonomy()
        a, b = parse_program('a := {"y"=1, "x"=f(2, 3)};\n'
                             'b := {"x"=f(2, 3), "y"=1};', tax)
        assert a.body == b.body
        assert [c.name for c, _ in a.body.fields] == ["x", "y"]
        assert len(tax.shapes) == 2

    def test_a_record_type_shares_the_memo_and_names_itself(self):
        tax = Taxonomy()
        ty = T.record_ty(tax, [("b", T.num_ty), ("a", T.str_ty)])
        assert ty == T.RecordTy(((mk_concept("a"), T.str_ty),
                                 (mk_concept("b"), T.num_ty)))
        tax.same_as(mk_concept("a"), mk_concept("b"))
        with pytest.raises(MalformedRecordError, match="^record type labels"):
            T.record_ty(tax, [("b", T.num_ty), ("a", T.str_ty)])
        with pytest.raises(MalformedRecordError, match="^record labels"):
            T.record(tax, [("b", T.num_f(1)), ("a", T.num_f(2))])


def test_parsing_leaves_no_cyclic_garbage():
    # the benchmark freezes the heap before each operation, so a cycle
    # through a batch's tokens would keep them alive for the whole run
    text = generate(GenConfig(persons=40, transactions=30, extra_attrs=3,
                              seed=5))
    gc.collect()
    gc.disable()
    try:
        decls = parse_program(text, Taxonomy())
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(decls) > 70
