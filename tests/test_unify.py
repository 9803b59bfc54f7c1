import random

from flutes.taxonomy import Taxonomy
from flutes import terms as T
from flutes.unify import unify

import termgen
from interpreters import substitute


def tax():
    return Taxonomy()


class TestBasics:
    def test_identical_terms(self):
        t = T.triple("orig-of", T.term_name("joe"), T.term_name("t1"))
        assert unify(t, t) == {}

    def test_var_binds_constant(self):
        assert unify(T.Var("x"), T.num_f(5)) == {"x": T.num_f(5)}
        assert unify(T.num_f(5), T.Var("x")) == {"x": T.num_f(5)}

    def test_stored_relation_pattern(self):
        pattern = T.triple("orig-of", T.Var("p"), T.Var("t"))
        stored = T.triple("orig-of", T.term_name("joe"), T.term_name("t1"))
        assert unify(pattern, stored) == {"p": T.term_name("joe"),
                                          "t": T.term_name("t1")}

    def test_aliases_are_constants(self):
        assert unify(T.term_name("joe"), T.term_name("joe")) == {}
        assert unify(T.term_name("joe"), T.term_name("sue")) is None

    def test_mismatched_heads_fail(self):
        a = T.triple("orig-of", T.Var("p"), T.Var("t"))
        b = T.triple("recv-of", T.term_name("sue"), T.term_name("t1"))
        assert unify(a, b) is None

    def test_record_labels_must_be_identical(self):
        ta = Taxonomy()
        a = T.record(ta, [("dob", T.Var("x"))])
        b = T.record(ta, [("birth_date", T.string("d"))])
        assert unify(a, b) is None  # no synonym lookup at unification

    def test_occurs_check(self):
        wrap = T.record(tax(), [("a", T.Var("x"))])
        assert unify(T.Var("x"), wrap) is None

    def test_var_chains_resolve(self):
        s = unify(T.Var("y"), T.num_f(1), unify(T.Var("x"), T.Var("y")))
        assert s == {"x": T.num_f(1), "y": T.num_f(1)}

    def test_lists_by_position(self):
        a = T.List((T.Var("x"), T.num_f(2)))
        b = T.List((T.num_f(1), T.Var("y")))
        assert unify(a, b) == {"x": T.num_f(1), "y": T.num_f(2)}
        assert unify(a, T.List((T.num_f(1),))) is None

    def test_conflicting_bindings_fail(self):
        one = unify(T.Var("x"), T.num_f(1))
        assert unify(T.Var("x"), T.num_f(2), one) is None

    def test_extends_existing_substitution(self):
        s = unify(T.Var("x"), T.num_f(1))
        assert unify(T.Var("y"), T.Var("x"), s)["y"] == T.num_f(1)


class TestProperties:
    def test_unifier_really_unifies(self):
        rng = random.Random(21)
        tax2, pool = termgen.make_taxonomy(rng)
        unified = 0
        for _ in range(400):
            a = termgen.random_term(rng, tax2, pool, 2)
            b = termgen.random_term(rng, tax2, pool, 2)
            s = unify(a, b)
            if s is None:
                continue
            unified += 1
            sa, sb = substitute(s, a), substitute(s, b)
            assert sa == sb
            # fully applied: a second pass changes nothing
            assert substitute(s, sa) == sa
        assert unified > 20

    def test_symmetry_of_success(self):
        rng = random.Random(22)
        tax2, pool = termgen.make_taxonomy(rng)
        for _ in range(200):
            a = termgen.random_term(rng, tax2, pool, 2)
            b = termgen.random_term(rng, tax2, pool, 2)
            assert (unify(a, b) is None) == (unify(b, a) is None)
