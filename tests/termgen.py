"""Seeded random generators for taxonomies, terms, types, and props.

Property tests and the acceptance suite drive these with an explicit
random.Random so every failure reproduces from its seed.
"""

from __future__ import annotations

import random
import string as _string

from flutes.taxonomy import Concept, Taxonomy, mk_concept, positional
from flutes import terms as T


def make_taxonomy(rng: random.Random, n_concepts: int = 20,
                  n_equiv: int = 4, n_isa: int = 8):
    """A taxonomy over c0..c(n-1) with random synonym and is-a edges."""
    tax = Taxonomy()
    pool = [mk_concept(f"c{i}") for i in range(n_concepts)]
    for _ in range(n_equiv):
        a, b = rng.sample(pool, 2)
        tax.same_as(a, b)
    for _ in range(n_isa):
        i = rng.randrange(n_concepts - 1)
        j = rng.randrange(i + 1, n_concepts)
        try:
            tax.add_is_a(pool[i], pool[j])
        except Exception:
            pass  # skip edges that would close a cycle through a synonym
    return tax, pool


def fresh_labels(rng: random.Random, tax: Taxonomy, pool, k: int,
                 allow_positional: bool = False):
    """k concepts that are pairwise unrelated as record labels."""
    out: list[Concept] = []
    attempts = 0
    while len(out) < k and attempts < 200:
        attempts += 1
        if allow_positional and rng.random() < 0.3:
            cand = positional(rng.randrange(6))
        else:
            cand = rng.choice(pool)
        clash = any(tax.label_match(cand, c) or tax.label_match(c, cand)
                    for c in out)
        if not clash:
            out.append(cand)
    return out


# ---------------------------------------------------------------------------
# static types, subtype derivation, inhabitants


def random_static_type(rng: random.Random, tax: Taxonomy, pool,
                       depth: int) -> T.Type:
    choices = ["num", "str", "enum"]
    if depth > 0:
        choices += ["list", "record", "record"]
    kind = rng.choice(choices)
    if kind == "num":
        return T.num_ty
    if kind == "str":
        return T.str_ty
    if kind == "enum":
        k = rng.randint(1, 3)
        return T.enum_ty(rng.sample(pool, k))
    if kind == "list":
        return T.ListTy(random_static_type(rng, tax, pool, depth - 1))
    return random_record_type(rng, tax, pool, depth)


def random_record_type(rng: random.Random, tax: Taxonomy, pool,
                       depth: int) -> T.RecordTy:
    labels = fresh_labels(rng, tax, pool, rng.randint(1, 4))
    fields = [(l, random_static_type(rng, tax, pool, depth - 1))
              for l in labels]
    return T.record_ty(tax, fields)


def _specialize_label(rng: random.Random, tax: Taxonomy, pool,
                      label: Concept) -> Concept:
    """A label that label_match-es the given one (synonym or hyponym)."""
    if label.is_positional:
        return label
    below = [c for c in pool if tax.label_match(c, label)]
    return rng.choice(below) if below else label


def narrow(rng: random.Random, tax: Taxonomy, pool, ty: T.Type) -> T.Type:
    """A random subtype of ty (possibly ty itself)."""
    if isinstance(ty, T.EnumTy):
        k = rng.randint(1, len(ty.concepts))
        kept = rng.sample(list(ty.concepts), k)
        return T.EnumTy(tuple(sorted(kept, key=lambda c: c.sort_key())))
    if isinstance(ty, T.ListTy):
        return T.ListTy(narrow(rng, tax, pool, ty.elem))
    if isinstance(ty, T.RecordTy):
        fields = []
        used = []
        for label, fty in ty.fields:
            sub_label = _specialize_label(rng, tax, pool, label)
            if any(tax.label_match(sub_label, u) or tax.label_match(u, sub_label)
                   for u in used):
                sub_label = label  # keep pairing unambiguous
            used.append(sub_label)
            fields.append((sub_label, narrow(rng, tax, pool, fty)))
        for _ in range(rng.randint(0, 2)):  # width subtyping: extra fields
            extra = rng.choice(pool)
            if any(tax.label_match(extra, u) or tax.label_match(u, extra)
                   for u in used):
                continue
            used.append(extra)
            fields.append((extra, random_static_type(rng, tax, pool, 1)))
        try:
            return T.record_ty(tax, fields)
        except Exception:
            return ty
    return ty


def inhabit(rng: random.Random, tax: Taxonomy, ty: T.Type) -> T.Term:
    """A term whose inferred type is exactly ty (up to enum narrowing)."""
    if isinstance(ty, T.NumTy):
        return T.Num(float(rng.randint(-1000, 1000)))
    if isinstance(ty, T.StrTy):
        return T.Str("".join(rng.choices(_string.ascii_lowercase, k=5)))
    if isinstance(ty, T.EnumTy):
        return T.Atom(rng.choice(ty.concepts))
    if isinstance(ty, T.ListTy):
        # repeated single element: empty or mixed lists have no inferred type
        one = inhabit(rng, tax, ty.elem)
        return T.List(tuple([one] * rng.randint(1, 3)))
    if isinstance(ty, T.RecordTy):
        return T.record(tax, [(l, inhabit(rng, tax, f)) for l, f in ty.fields])
    raise ValueError(f"cannot inhabit {ty!r}")


# ---------------------------------------------------------------------------
# arbitrary values for serialization round-trips


_NAME_ALPHABET = _string.ascii_letters + _string.digits + "_-"


def random_name(rng: random.Random) -> str:
    if rng.random() < 0.15:  # force the quoted path
        return rng.choice(['with space', 'tab\there', 'quote"inside',
                           'back\\slash', 'new\nline', '0starts.digit'])
    return rng.choice(_string.ascii_letters) + "".join(
        rng.choices(_NAME_ALPHABET, k=rng.randint(0, 8)))


def random_concept(rng: random.Random, pool) -> Concept:
    if rng.random() < 0.2:
        return positional(rng.randrange(8))
    if rng.random() < 0.2:
        return mk_concept(random_name(rng))
    return rng.choice(pool)


def random_term(rng: random.Random, tax: Taxonomy, pool,
                depth: int) -> T.Term:
    choices = ["num", "str", "atom", "var", "alias", "bottom"]
    if depth > 0:
        choices += ["record", "record", "list", "select"]
    kind = rng.choice(choices)
    if kind == "num":
        return T.Num(rng.choice([0.0, -1.5, 500.0, 3.14159, 1e-9,
                                 float(rng.randint(-9999, 9999))]))
    if kind == "str":
        return T.Str(rng.choice(["", "Joe", "1984-06-27", 'esc"ape',
                                 "tab\tand\nnewline", random_name(rng)]))
    if kind == "atom":
        return T.Atom(random_concept(rng, pool))
    if kind == "var":
        return T.Var(random_name(rng))
    if kind == "alias":
        return T.TermAlias(random_name(rng))
    if kind == "bottom":
        return T.Bottom(random_concept(rng, pool))
    if kind == "list":
        return T.List(tuple(random_term(rng, tax, pool, depth - 1)
                            for _ in range(rng.randint(0, 3))))
    if kind == "select":
        return T.FieldSelection(random_term(rng, tax, pool, depth - 1),
                                random_concept(rng, pool))
    labels = fresh_labels(rng, tax, pool, rng.randint(0, 3),
                          allow_positional=True)
    fields = [(l, random_term(rng, tax, pool, depth - 1)) for l in labels]
    return T.record(tax, fields)


def random_type(rng: random.Random, tax: Taxonomy, pool,
                depth: int) -> T.Type:
    if depth > 0 and rng.random() < 0.15:
        binding = T.Var(random_name(rng))
        bty = random_type(rng, tax, pool, depth - 1)
        if isinstance(bty, T.SubsetTy):
            bty = T.num_ty
        return T.subset_ty(binding, bty, random_prop(rng, tax, pool, depth - 1))
    if rng.random() < 0.1:
        return T.TyAlias(random_name(rng))
    if rng.random() < 0.1:
        return T.void_ty
    return random_static_type(rng, tax, pool, depth)


def random_prop(rng: random.Random, tax: Taxonomy, pool,
                depth: int) -> T.Prop:
    choices = ["pred", "true", "false"]
    if depth > 0:
        choices += ["and", "or", "not", "exists", "inseq"]
    kind = rng.choice(choices)
    if kind == "pred":
        op = rng.choice(list(T.PredOp))
        return T.BuiltinPred(op, (random_term(rng, tax, pool, 1),
                                  random_term(rng, tax, pool, 1)))
    if kind == "true":
        return T.TRUE
    if kind == "false":
        return T.FALSE
    if kind == "and":
        return T.And(random_prop(rng, tax, pool, depth - 1),
                     random_prop(rng, tax, pool, depth - 1))
    if kind == "or":
        return T.Or(random_prop(rng, tax, pool, depth - 1),
                    random_prop(rng, tax, pool, depth - 1))
    if kind == "not":
        return T.Not(random_prop(rng, tax, pool, depth - 1))
    if kind == "exists":
        return T.Exists(random_name(rng),
                        random_type(rng, tax, pool, depth - 1),
                        random_prop(rng, tax, pool, depth - 1))
    return T.InSequence(random_term(rng, tax, pool, 1),
                        tuple(random_term(rng, tax, pool, 1)
                              for _ in range(rng.randint(0, 3))))


WORKED_CORPUS = """
joe := {"name"="Joe", "birth_date"="1984-06-27"};
sue := {"name"="Sue", "dob"="1941-12-07"};
t1 := {"amount" = 500.0, "type"=check()};
o1 := orig-of(joe, t1);
r1 := recv-of(sue, t1);
"""


def related_prop(left: str, right: str) -> T.Prop:
    """One direction of transactional relatedness between two person vars."""
    return T.exists("t", T.type_name("trans"),
           T.exists("s", T.type_name("orig_of"),
           T.exists("r", T.type_name("recv_of"),
               T.conj(
                   T.equals(T.triple("orig-of", T.var(left), T.var("t")),
                            T.var("s")),
                   T.equals(T.triple("recv-of", T.var(right), T.var("t")),
                            T.var("r"))))))


def define_tx_classes(store) -> None:
    """The person/trans/orig_of/recv_of/fi_related class family."""
    tax = store.tax
    store.mk_kb_class("person", T.record_ty(
        tax, [("name", T.str_ty), ("dob", T.str_ty)]))
    store.mk_kb_class("trans", T.record_ty(
        tax, [("amount", T.num_ty), ("type", T.enum_ty(["check", "cc"]))]))
    store.mk_kb_class("orig_of", T.triple_ty(
        "orig-of", T.type_name("person"), T.type_name("trans")))
    store.mk_kb_class("recv_of", T.triple_ty(
        "recv-of", T.type_name("person"), T.type_name("trans")))
    store.mk_kb_class("fi_related", T.subset_ty(
        T.triple("fi-related", T.var("p"), T.var("q")),
        T.triple_ty("fi-related", T.type_name("person"),
                    T.type_name("person")),
        related_prop("p", "q")))


def define_target_class(store, target: str) -> None:
    """Persons related to the named person through some fi_related edge."""
    one_way = T.equals(
        T.triple("fi-related", T.var("p"), T.term_name(target)), T.var("f"))
    other_way = T.equals(
        T.triple("fi-related", T.term_name(target), T.var("p")), T.var("f"))
    store.mk_kb_class("m_target", T.subset_ty(
        T.var("p"), T.type_name("person"),
        T.exists("f", T.type_name("fi_related"),
                 T.disj(one_way, other_way))))


def build_worked_store(path=None):
    """Store loaded with the five-term corpus and the class family."""
    from flutes.store import Store
    from flutes.syntax import parse_program

    store = Store(path)
    store.same_as("dob", "birth_date")
    for d in parse_program(WORKED_CORPUS, store.tax):
        store.abox_insert(d.name, d.body)
    define_tx_classes(store)
    return store


def member_set(cls) -> set[T.Term]:
    """The terms a class's members hold, as a set."""
    return {t for _, t in cls.members}
