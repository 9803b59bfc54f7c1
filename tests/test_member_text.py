"""A derived member's storage form, alias names and name.

A subset class's binding is compiled once into a builder of the
substituted term and a template of its storage form (see classifier.py);
a member whose coercion is skipped is named from the filled template and
indexed by the binding's and the values' alias names.  These tests pin
that both equal what rendering and walking the substituted term give, and
that names and state are those the term-rendering classifier gave.
"""

import hashlib
import io
import os
import random
import runpy

import pytest
from hypothesis import given, settings, strategies as st

from flutes import terms as T
from flutes.benchgen import GenConfig, generate
from flutes.classifier import Binding, find_members
from flutes.cli import Session
from flutes.rules import member_name
from flutes.sexp import parse_sexp, render_sexp, template
from flutes.store import Store
from flutes.syntax import insert_text
from flutes.taxonomy import Taxonomy, mk_concept, positional

import termgen
from interpreters import substitute

GEN = runpy.run_path(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  os.pardir, "perfbench", "gen.py"))
SUBSET_CLASSES = [n for n, ty in GEN["CLASSES"].items()
                  if ty.startswith("(subsetty")]

# names that need quoting, and names that look like the template's marks
_names = st.sampled_from(["p1", "t0", "with space", 'quo"te', "back\\slash",
                          "new\nline", "\0", "\0" * 3 + "0", "(alias"])
_labels = st.one_of(st.sampled_from(["name", "dob", "a b", "orig-of"])
                    .map(mk_concept), st.integers(0, 3).map(positional))
_leaves = st.one_of(
    _names.map(T.TermAlias),
    st.text(alphabet='ab"\\\n\t\r\0()', max_size=8).map(T.Str),
    st.sampled_from([0.0, -1.5, 1e-9, 5000.0]).map(T.Num),
    _labels.map(T.Atom))
_values = st.recursive(_leaves, lambda kids: st.one_of(
    st.lists(kids, max_size=3).map(lambda xs: T.List(tuple(xs))),
    st.dictionaries(_labels, kids, max_size=3).map(
        lambda d: T.Record(T.sort_fields(d.items())))), max_leaves=8)


def benchmark_store() -> Store:
    """A store with every class the benchmark defines."""
    session = Session(Store(), io.StringIO(), timings=False)
    for line in GEN["setup_lines"]() + [f"defclass {n} {GEN['CLASSES'][n]}"
                                        for n in GEN["LATE_CLASSES"] + ["near"]]:
        session.run_line(line)
    return session.store


@pytest.fixture(scope="module")
def classes():
    return benchmark_store()


@settings(max_examples=150)
@given(name=st.sampled_from(SUBSET_CLASSES), data=st.data())
def test_composed_storage_equals_the_rendered_term(classes, name, data):
    binding = Binding(classes.kb_class(name))
    subst = {v: data.draw(_values) for v in binding.vars}
    term = substitute(subst, binding.term)
    assert binding.build(subst) == term
    assert binding.storage(subst) == (render_sexp(term), T.alias_names(term))


@settings(max_examples=150)
@given(st.integers(0, 10_000), st.data())
def test_template_renders_any_binding(seed, data):
    rng = random.Random(seed)
    tax = Taxonomy()
    pool = [mk_concept(f"c{i}") for i in range(4)]
    term = termgen.random_term(rng, tax, pool, 3)
    names = sorted(T.free_vars(term))
    subst = {v: data.draw(_values) for v in names}
    assert template(term, names)(subst) == render_sexp(substitute(subst, term))
    assert T.substituter(term)(subst) == substitute(subst, term)


def test_template_keeps_aliases_and_strings_that_look_like_slots():
    term = T.List((T.TermAlias("\0" + "0"), T.Str('(alias "\0' + '0")'),
                   T.Var("x"), T.TermAlias("\0")))
    subst = {"x": T.TermAlias("p1")}
    assert template(term, ["x"])(subst) == render_sexp(substitute(subst, term))


def test_a_coerced_member_is_named_from_the_coerced_term():
    """A `(var x)` binding over person, bound to a record written with
    birth_date: the member is the record coerced to dob, and its name
    digests that record's storage form."""
    s = Store()
    s.same_as("dob", "birth_date")
    s.mk_kb_class("person", parse_sexp(GEN["CLASSES"]["person"]))
    s.mk_kb_class("born", parse_sexp(
        "(recordty ((birth_date (strty)) (name (strty))))"))
    s.mk_kb_class("adult", parse_sexp(
        "(subsetty (var x) (tyalias person) (exists b (tyalias born) "
        "(pred eq (var x) (var b))))"))
    insert_text(s, 'x := {"name" = "X", "birth_date" = "1970-01-01"};')
    find_members(s)
    adult = s.kb_class("adult")
    [(_, unchanged)] = adult.binding.proofs.values()
    assert not unchanged
    [(name, term)] = adult.members
    assert term == parse_sexp(
        '(record ((dob (str "1970-01-01")) (name (str "X"))))')
    assert name == member_name("adult", render_sexp(term)) == "adult#f16313a61838"


def test_benchmark_classes_state_is_pinned():
    """dump_state after find_members on a seeded corpus under the
    benchmark's classes, as the term-rendering classifier left it."""
    store = benchmark_store()
    insert_text(store, generate(GenConfig(persons=40, transactions=60,
                                          p_drop_orig=0.1, p_drop_recv=0.1,
                                          extra_attrs=1, seed=5)))
    report = find_members(store)
    assert report.per_class["fi_2hop"].matched > 0
    digest = hashlib.sha1(store.dump_state().encode("utf-8")).hexdigest()
    assert digest == "798e2d459da5eed8ea95c6d37ce086303727aaba"
