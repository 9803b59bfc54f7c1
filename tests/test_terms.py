import pytest

from flutes.errors import ArityError, MalformedRecordError, TermError
from flutes.taxonomy import Taxonomy, mk_concept, positional
from flutes import terms as T


@pytest.fixture
def tax():
    return Taxonomy()


class TestConstructors:
    def test_record_fields_sorted_by_label_order(self, tax):
        r = T.record(tax, [("name", T.string("Joe")),
                           ("birth_date", T.string("1984-06-27"))])
        assert [c.name for c, _ in r.fields] == ["birth_date", "name"]

    def test_positional_fields_precede_named(self, tax):
        r = T.Record(T.sort_fields([
            (mk_concept("z"), T.num(1)),
            (positional(1), T.num(2)),
            (positional(0), T.num(3)),
        ]))
        assert [c.sort_key()[:2] for c, _ in r.fields] == [(0, 0), (0, 1), (1, 0)]

    def test_equivalent_labels_rejected(self, tax):
        tax.same_as(mk_concept("dob"), mk_concept("birth_date"))
        with pytest.raises(MalformedRecordError):
            T.record(tax, [("dob", T.string("x")), ("birth_date", T.string("y"))])

    def test_duplicate_labels_rejected(self, tax):
        with pytest.raises(MalformedRecordError):
            T.record(tax, [("a", T.num(1)), ("a", T.num(2))])

    def test_hyponym_only_labels_allowed(self, tax):
        # one-way label_match does not make the pairing ambiguous
        tax.add_is_a(mk_concept("check"), mk_concept("payment"))
        r = T.record(tax, [("check", T.num(1)), ("payment", T.num(2))])
        assert len(r.fields) == 2

    def test_mutual_hyponyms_with_distinct_roots_rejected(self, tax):
        # x is-a y is-a z, x ~ z: x and y match both ways though their
        # union-find roots differ
        x, y, z = (mk_concept(n) for n in "xyz")
        tax.add_is_a(x, y)
        tax.add_is_a(y, z)
        tax.same_as(x, z)
        assert tax.find(x) != tax.find(y)
        with pytest.raises(MalformedRecordError, match="equivalent"):
            T.record(tax, [("x", T.num(1)), ("y", T.num(2))])
        with pytest.raises(MalformedRecordError, match="equivalent"):
            T.record_ty(tax, [("x", T.num_ty), ("y", T.num_ty)])
        T.record(tax, [("x", T.num(1)), ("w", T.num(2))])

    def test_duplicate_positions_rejected(self, tax):
        with pytest.raises(MalformedRecordError):
            T.record(tax, [(positional(0), T.num(1)), (positional(0), T.num(2))])
        T.record(tax, [(positional(0), T.num(1)), (positional(1), T.num(2))])

    def test_num_rejects_non_finite(self):
        with pytest.raises(TermError):
            T.num_f(float("inf"))
        with pytest.raises(TermError):
            T.num_f(float("nan"))
        assert T.num(500) == T.Num(500.0)

    def test_pred_app_positional_encoding(self):
        t = T.triple("orig-of", T.term_name("joe"), T.term_name("t1"))
        ((head, inner),) = t.fields
        assert head == mk_concept("orig-of")
        assert inner == T.Record(((positional(0), T.TermAlias("joe")),
                                  (positional(1), T.TermAlias("t1"))))

    def test_pred_app_requires_arguments(self):
        with pytest.raises(ArityError):
            T.pred_app("p", [])
        with pytest.raises(ArityError):
            T.pred_ty("p", [])

    def test_enum_requires_concepts(self):
        with pytest.raises(TermError):
            T.enum_ty([])

    def test_subset_ty_rejects_captured_binding_vars(self):
        body = T.exists("p", T.num_ty, T.TRUE)
        with pytest.raises(TermError):
            T.subset_ty(T.Var("p"), T.num_ty, body)
        # distinct names are fine
        T.subset_ty(T.Var("q"), T.num_ty, body)


class TestPredAppParts:
    def test_round_trip(self):
        t = T.triple("recv-of", T.term_name("sue"), T.term_name("t1"))
        head, args = T.pred_app_parts(t)
        assert head.name == "recv-of"
        assert args == (T.TermAlias("sue"), T.TermAlias("t1"))

    def test_plain_records_are_not_pred_apps(self, tax):
        obj = T.record(tax, [("name", T.string("Joe"))])
        assert T.pred_app_parts(obj) is None
        two = T.record(tax, [("a", T.num(1)), ("b", T.num(2))])
        assert T.pred_app_parts(two) is None


class TestVariables:
    def test_free_vars_in_terms(self, tax):
        t = T.record(tax, [("a", T.Var("x")),
                           ("b", T.term_list([T.Var("y"), T.num(1)]))])
        assert T.free_vars(t) == {"x", "y"}

    def test_exists_binds(self):
        p = T.exists("t", T.num_ty, T.equals(T.Var("t"), T.Var("p")))
        assert T.free_vars(p) == {"p"}

    def test_substitute_only_free(self):
        p = T.exists("t", T.num_ty, T.equals(T.Var("t"), T.Var("p")))
        q = T.substitute_prop({"t": T.num(1), "p": T.num(2)}, p)
        assert q == T.exists("t", T.num_ty, T.equals(T.Var("t"), T.num(2)))

    def test_substitute_avoids_capture(self):
        # replacing p with a term mentioning t must not capture t
        p = T.exists("t", T.num_ty, T.equals(T.Var("t"), T.Var("p")))
        q = T.substitute_prop({"p": T.Var("t")}, p)
        assert isinstance(q, T.Exists)
        assert q.var != "t"
        assert q.body == T.equals(T.Var(q.var), T.Var("t"))

    def test_alias_names(self, tax):
        t = T.record(tax, [("a", T.term_name("joe")),
                           ("b", T.term_list([T.term_name("t1")]))])
        assert T.alias_names(t) == {"joe", "t1"}
