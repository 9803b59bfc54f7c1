"""End-to-end acceptance gate.

One test per shipped guarantee; each prints a single pass/fail line so
the suite doubles as a sign-off report:

    pytest tests/test_acceptance.py -v -s
"""

import random
import time
from contextlib import contextmanager

from flutes import terms as T
from flutes.benchgen import (GenConfig, define_schema, generate, insert_text)
from flutes.classifier import find_members
from flutes.oracle import oracle_members
from flutes.rules import mk_analytic, run_analytic
from flutes.sexp import parse_sexp, render_sexp
from flutes.store import Store
from flutes.syntax import parse_program
from flutes.typecheck import (apply_coercion, infer_static_type,
                              is_identity_shaped, prove_subtype)

from termgen import (WORKED_CORPUS, build_worked_store, inhabit,
                     make_taxonomy, member_set, narrow, random_record_type,
                     random_term, random_type)


@contextmanager
def gate(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"\nacceptance {number} {label}: FAIL")
        raise
    print(f"\nacceptance {number} {label}: PASS")


def test_1_worked_example_pipeline():
    with gate(1, "worked-example pipeline"):
        start = time.perf_counter()
        s = build_worked_store()
        find_members(s)
        elapsed = time.perf_counter() - start
        tax = s.tax
        joe = T.record(tax, [("dob", T.string("1984-06-27")),
                             ("name", T.string("Joe"))])
        sue = T.record(tax, [("dob", T.string("1941-12-07")),
                             ("name", T.string("Sue"))])
        person = s.kb_class("person")
        assert member_set(person) == {joe, sue}
        stored_joe = person.members[person.by_name["joe"]][1]
        assert [c.name for c, _ in stored_joe.fields] == ["dob", "name"]
        t1 = T.record(tax, [("amount", T.num_f(500.0)),
                            ("type", T.atom("check"))])
        assert member_set(s.kb_class("trans")) == {t1}
        assert s.kb_class("orig_of").by_name.keys() == {"o1"}
        assert s.kb_class("recv_of").by_name.keys() == {"r1"}
        fi = [t for _, t in s.kb_class("fi_related").members]
        assert fi == [T.triple("fi-related", T.term_name("joe"),
                               T.term_name("sue"))]
        assert elapsed < 1.0


def test_2_record_type_inference():
    with gate(2, "record type inference"):
        s = build_worked_store()
        joe = s.untyped["joe"]
        expected = T.record_ty(s.tax, [("name", T.str_ty),
                                       ("birth_date", T.str_ty)])
        assert infer_static_type(joe, s.tax) == expected  # and warm the path
        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            infer_static_type(joe, s.tax)
            timings.append(time.perf_counter() - t0)
        assert min(timings) < 0.001


def test_3_oracle_equivalence_on_random_corpora():
    with gate(3, "mission classes equal the reference enumerator"):
        start = time.perf_counter()
        rng = random.Random(3003)
        drops = [0.0, 0.2, 0.5]
        for i in range(50):
            cfg = GenConfig(persons=rng.randint(2, 200),
                            transactions=rng.randint(1, 100),
                            p_drop_orig=drops[i % 3],
                            p_drop_recv=drops[(i // 3) % 3],
                            seed=3100 + i)
            store = Store()
            insert_text(store, generate(cfg))
            define_schema(store, "p0")
            find_members(store)
            expected = oracle_members(store)
            for name in ("fi_related", "m_target"):
                assert dict(store.kb_class(name).members) == expected[name], \
                    f"{name} diverged on corpus {i}"
        assert time.perf_counter() - start < 300


def test_4_subtype_proofs_coerce_soundly():
    with gate(4, "coercion soundness over random record types"):
        start = time.perf_counter()
        rng = random.Random(44)
        tax, pool = None, None
        proved = 0
        for i in range(1000):
            if i % 50 == 0:
                tax, pool = make_taxonomy(rng)
            sup = random_record_type(rng, tax, pool, rng.randint(1, 3))
            if rng.random() < 0.25:
                source = random_record_type(rng, tax, pool, rng.randint(1, 3))
            else:
                source = narrow(rng, tax, pool, sup)
            x = inhabit(rng, tax, source)
            sub = infer_static_type(x, tax)
            assert sub is not None
            proof = prove_subtype(sub, sup, tax)
            if proof is None:
                continue
            proved += 1
            y = apply_coercion(proof, x)
            re_ty = infer_static_type(y, tax)
            assert re_ty is not None, f"pair {i}: coerced term lost its type"
            again = prove_subtype(re_ty, sup, tax)
            assert again is not None, f"pair {i}: coerced term left the type"
            assert is_identity_shaped(again), f"pair {i}: coercion not settled"
        assert proved >= 400  # the property must actually get exercised
        assert time.perf_counter() - start < 60


def test_5_determinism(tmp_path):
    with gate(5, "deterministic proofs and member files"):
        s = build_worked_store()
        joe_ty = infer_static_type(s.untyped["joe"], s.tax)
        person_ty = s.classes["person"].definition
        proofs = [prove_subtype(joe_ty, person_ty, s.tax) for _ in range(10)]
        assert all(p == proofs[0] for p in proofs[1:])

        cfg = GenConfig(persons=30, transactions=25, p_drop_orig=0.2,
                        p_drop_recv=0.2, seed=55)

        def run(tag):
            path = tmp_path / tag
            st = Store(str(path))
            insert_text(st, generate(cfg))
            define_schema(st, "p0")
            find_members(st)
            st.close()
            return {f.name: f.read_bytes() for f in sorted(path.glob("*.fsx"))}

        runs = [run(f"run{i}") for i in range(10)]
        assert all(r == runs[0] for r in runs[1:])


def test_6_incremental_reclassification():
    with gate(6, "incremental update cost"):
        cfg = GenConfig(persons=10_000, transactions=4000, p_drop_orig=0.2,
                        p_drop_recv=0.2, seed=64)
        store = Store()
        insert_text(store, generate(cfg))
        define_schema(store, "p0")
        find_members(store)
        fi_before = len(store.kb_class("fi_related").members)
        target_before = len(store.kb_class("m_target").members)
        lines = []
        for i in range(5):
            lines.append(f'wp{i} := {{"name"="Late {i}", "dob"="1970-01-0{i + 1}"}};')
            lines.append(f'wtx{i} := {{"amount" = {100 + i}.5, "type"=check()}};')
            lines.append(f"wog{i} := orig-of(p0, wtx{i});")
            lines.append(f"wrc{i} := recv-of(wp{i}, wtx{i});")
        start = time.perf_counter()
        assert insert_text(store, "\n".join(lines)) == 20
        report = find_members(store)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        assert report.promoted == 20
        for name in ("person", "trans", "orig_of", "recv_of"):
            assert report.per_class[name].scanned == 20  # above watermark only
        assert report.per_class["fi_related"].candidates <= 100
        assert len(store.kb_class("fi_related").members) == fi_before + 5
        assert len(store.kb_class("m_target").members) == target_before + 5
        rerun = find_members(store)
        assert rerun.promoted == 0
        for st in rerun.per_class.values():
            assert st.scanned == st.candidates == st.matched == 0


def test_7_pruning_effectiveness():
    with gate(7, "adjacency pruning beats the pairwise scan"):
        start = time.perf_counter()
        cfg = GenConfig(persons=1000, transactions=800, p_drop_orig=0.2,
                        p_drop_recv=0.2, seed=77)
        store = Store()
        insert_text(store, generate(cfg))
        define_schema(store, "p0")
        report = find_members(store)
        n = len(store.kb_class("orig_of").members)
        m = len(store.kb_class("recv_of").members)
        assert n > 0 and m > 0
        candidates = report.per_class["fi_related"].candidates
        assert candidates < 0.10 * n * m
        assert time.perf_counter() - start < 60


COLON_CORPUS = """
joe := {"name": "Joe", "birth_date": "1984-06-27"};
sue := {"name": "Sue", "dob": "1941-12-07"};
t1 := {"amount" : 500.0, "type": check()};
o1 := orig-of(joe, t1);
r1 := recv-of(sue, t1);
"""

def author_text(sep_a, sep_b):
    return (f'author := {{"name" {sep_a} "Sue Grafton",\n'
            f'            "dob" {sep_a} "1941-12-07",\n'
            f'            "birth-place" {sep_b} Kentucky}};')


def test_8_serialization_round_trips():
    with gate(8, "serialization and concrete-syntax round-trips"):
        rng = random.Random(88)
        tax, pool = None, None
        for i in range(1000):
            if i % 100 == 0:
                tax, pool = make_taxonomy(rng)
            if i % 2 == 0:
                x = random_term(rng, tax, pool, 3)
            else:
                x = random_type(rng, tax, pool, 3)
            assert parse_sexp(render_sexp(x)) == x

        with_eq = [(d.name, d.body) for d in parse_program(WORKED_CORPUS)]
        with_colon = [(d.name, d.body) for d in parse_program(COLON_CORPUS)]
        assert with_eq == with_colon
        mixed = parse_program(author_text(":", "="))[0].body
        colon_only = parse_program(author_text(":", ":"))[0].body
        eq_only = parse_program(author_text("=", "="))[0].body
        assert mixed == colon_only == eq_only


def test_9_analytic_type_safety_fuzz():
    with gate(9, "analytic output integrity under fuzzing"):
        store = Store()
        insert_text(store, generate(GenConfig(persons=15, transactions=8,
                                              seed=9)))
        define_schema(store, "p0")
        find_members(store)
        sink_ty = T.record_ty(store.tax, [("name", T.str_ty),
                                          ("dob", T.str_ty)])
        store.mk_kb_class("sink", sink_ty)
        rng = random.Random(900)
        fuzz_tax, fuzz_pool = make_taxonomy(rng)
        registry = {}
        total_failures = 0
        for i in range(100):
            mode = rng.randrange(4)

            def fn(t, mode=mode, i=i):
                if mode == 0:
                    return t
                if mode == 1:
                    return inhabit(rng, store.tax, sink_ty)
                if mode == 2:
                    return random_term(rng, fuzz_tax, fuzz_pool, 2)
                raise RuntimeError(f"analytic {i} exploded")

            analytic = mk_analytic(store, f"fuzz{i}", "person", "sink", fn,
                                   registry=registry)
            report = run_analytic(store, analytic)
            # one term's failure never aborts the rest of the sweep
            assert report.processed == len(store.kb_class("person").members)
            total_failures += len(report.failures)
        assert total_failures > 0  # the fuzz actually produced bad outputs
        sink = store.kb_class("sink")
        assert len(sink.members) > 0
        out_ty = store.resolve_class_type("sink")
        violations = 0
        for _, term in sink.members:
            ty = infer_static_type(term, store.tax)
            if ty is None or prove_subtype(ty, out_ty, store.tax) is None:
                violations += 1
        assert violations == 0
