"""Synthetic transaction corpora and an end-to-end benchmark harness.

`generate` renders a random population of person records, transaction
records, and originator/recipient links in the concrete declaration
syntax.  `run_experiment` loads such a corpus into a fresh store,
registers the transaction schema, runs classification twice (once from
scratch, once after a small increment), and cross-checks every class
extension against the reference enumerator.
"""

import argparse
import random
import sys
import time
from dataclasses import dataclass

from . import terms as T
from .classifier import find_members
from .oracle import oracle_extensions
from .store import Store
from .syntax import parse_program


@dataclass(frozen=True)
class GenConfig:
    persons: int = 50
    transactions: int = 40
    p_drop_orig: float = 0.0
    p_drop_recv: float = 0.0
    extra_attrs: int = 0
    seed: int = 0

    def __post_init__(self):
        for field in ("persons", "transactions", "extra_attrs", "seed"):
            if not isinstance(getattr(self, field), int):
                raise ValueError(f"{field} must be an integer")
        if self.persons < 0 or self.transactions < 0 or self.extra_attrs < 0:
            raise ValueError("counts must be >= 0")
        for field in ("p_drop_orig", "p_drop_recv"):
            p = getattr(self, field)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{field} must be within [0, 1]")


def _dob(rng: random.Random) -> str:
    return (f"{1900 + rng.randrange(100):04d}-"
            f"{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}")


def _person_decl(name: str, label: str, rng: random.Random,
                 extra_attrs: int) -> str:
    fields = [f'"name"="{label}"', f'"dob"="{_dob(rng)}"']
    for j in range(extra_attrs):
        fields.append(f'"x{j}"="v{rng.randrange(1_000_000)}"')
    return f"{name} := {{{', '.join(fields)}}};"


def _txn_decl(name: str, rng: random.Random) -> str:
    amount = round(rng.uniform(1.0, 10_000.0), 2)
    kind = rng.choice(["check", "cc"])
    return f'{name} := {{"amount" = {amount}, "type"={kind}()}};'


def generate(cfg: GenConfig) -> str:
    """Concrete-syntax declarations for a random transaction corpus.

    The same config always renders the same text.  Each transaction's
    originator and recipient links are dropped independently with the
    configured probabilities, leaving partially-connected corpora.
    """
    rng = random.Random(cfg.seed)
    lines = []
    for i in range(cfg.persons):
        lines.append(_person_decl(f"p{i}", f"Person {i}", rng,
                                  cfg.extra_attrs))
    for i in range(cfg.transactions):
        lines.append(_txn_decl(f"tx{i}", rng))
        # endpoints are always drawn so drop rates do not shift the stream
        orig = rng.randrange(cfg.persons) if cfg.persons else 0
        recv = rng.randrange(cfg.persons) if cfg.persons else 0
        drop_orig = rng.random() < cfg.p_drop_orig
        drop_recv = rng.random() < cfg.p_drop_recv
        if cfg.persons and not drop_orig:
            lines.append(f"og{i} := orig-of(p{orig}, tx{i});")
        if cfg.persons and not drop_recv:
            lines.append(f"rc{i} := recv-of(p{recv}, tx{i});")
    return "\n".join(lines) + "\n"


def generate_increment(cfg: GenConfig, count: int = 5) -> str:
    """Declarations for `count` fresh fully-linked transactions.

    Each transaction brings a new person and links an existing person
    (the originator) to the new one, four declarations per transaction.
    """
    if cfg.persons < 1:
        raise ValueError("an increment needs at least one existing person")
    rng = random.Random(cfg.seed + 1)
    lines = []
    for i in range(count):
        lines.append(_person_decl(f"wp{i}", f"Late person {i}", rng,
                                  cfg.extra_attrs))
        lines.append(_txn_decl(f"wtx{i}", rng))
        orig = rng.randrange(cfg.persons)
        lines.append(f"wog{i} := orig-of(p{orig}, wtx{i});")
        lines.append(f"wrc{i} := recv-of(wp{i}, wtx{i});")
    return "\n".join(lines) + "\n"


def related_prop(left: T.Term, right: T.Term) -> T.Prop:
    """left and right are endpoints of one transaction."""
    t, s, r = T.var("t"), T.var("s"), T.var("r")
    return T.exists(
        "t", T.type_name("trans"),
        T.exists(
            "s", T.type_name("orig_of"),
            T.exists(
                "r", T.type_name("recv_of"),
                T.conj(T.equals(T.triple("orig-of", left, t), s),
                       T.equals(T.triple("recv-of", right, t), r)))))


def define_schema(store: Store, target: str):
    """Register the transaction class family plus the target's neighborhood.

    `target` names a stored person; `m_target` collects every person one
    fi-related edge away from it, in either direction.
    """
    tax = store.tax
    store.mk_kb_class("person", T.record_ty(
        tax, [("name", T.str_ty), ("dob", T.str_ty)]))
    store.mk_kb_class("trans", T.record_ty(
        tax, [("amount", T.num_ty), ("type", T.enum_ty(["check", "cc"]))]))
    store.mk_kb_class("orig_of", T.triple_ty(
        "orig-of", T.type_name("person"), T.type_name("trans")))
    store.mk_kb_class("recv_of", T.triple_ty(
        "recv-of", T.type_name("person"), T.type_name("trans")))
    p, q = T.var("p"), T.var("q")
    store.mk_kb_class("fi_related", T.subset_ty(
        T.triple("fi-related", p, q),
        T.triple_ty("fi-related", T.type_name("person"),
                    T.type_name("person")),
        related_prop(p, q)))
    x, f = T.var("x"), T.var("f")
    tgt = T.term_name(target)
    near = T.exists(
        "f", T.type_name("fi_related"),
        T.disj(T.equals(T.triple("fi-related", x, tgt), f),
               T.equals(T.triple("fi-related", tgt, x), f)))
    store.mk_kb_class("m_target", T.subset_ty(x, T.type_name("person"), near))


def insert_text(store: Store, text: str) -> int:
    decls = parse_program(text, store.tax, known=store.term_names())
    for d in decls:
        store.abox_insert(d.name, d.body)
    store.commit()
    return len(decls)


def _phase(store: Store, phase: str, emit, prune: bool) -> bool:
    start = time.perf_counter()
    report = find_members(store, prune=prune)
    elapsed = time.perf_counter() - start
    expected = oracle_extensions(store)
    all_agree = True
    for name in report.order:
        st = report.per_class[name]
        cls = store.kb_class(name)
        agree = cls.member_terms.keys() == expected[name]
        all_agree = all_agree and agree
        emit(f"{phase}.{name}.members\t{len(cls.members)}")
        emit(f"{phase}.{name}.scanned\t{st.scanned}")
        emit(f"{phase}.{name}.candidates\t{st.candidates}")
        emit(f"{phase}.{name}.matched\t{st.matched}")
        emit(f"{phase}.{name}.elapsed\t{st.elapsed:.6f}")
        emit(f"{phase}.{name}.agree\t{str(agree).lower()}")
    emit(f"{phase}.promoted\t{report.promoted}")
    emit(f"{phase}.elapsed\t{elapsed:.6f}")
    return all_agree


def run_experiment(cfg: GenConfig, out=None, prune: bool = True) -> int:
    """Generate, load, classify, increment, reclassify, and cross-check.

    Writes a key<TAB>value report and returns 0 when every class
    extension matches the reference enumerator in both phases.
    """
    if cfg.persons < 1:
        raise ValueError("an experiment needs at least one person")
    out = sys.stdout if out is None else out

    def emit(line):
        print(line, file=out)

    for key in ("persons", "transactions", "p_drop_orig", "p_drop_recv",
                "extra_attrs", "seed"):
        emit(f"config.{key}\t{getattr(cfg, key)}")
    store = Store()
    emit(f"inserted\t{insert_text(store, generate(cfg))}")
    define_schema(store, "p0")
    ok = _phase(store, "initial", emit, prune)
    emit(f"inserted\t{insert_text(store, generate_increment(cfg))}")
    ok = _phase(store, "increment", emit, prune) and ok
    emit(f"agree\t{str(ok).lower()}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flutes-bench",
        description="synthetic corpus benchmark for the class engine")
    parser.add_argument("--persons", type=int, default=50)
    parser.add_argument("--txns", type=int, default=40)
    parser.add_argument("--drop-orig", type=float, default=0.0)
    parser.add_argument("--drop-recv", type=float, default=0.0)
    parser.add_argument("--extra", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", help="report file (default stdout)")
    args = parser.parse_args(argv)
    try:
        cfg = GenConfig(persons=args.persons, transactions=args.txns,
                        p_drop_orig=args.drop_orig, p_drop_recv=args.drop_recv,
                        extra_attrs=args.extra, seed=args.seed)
    except ValueError as exc:
        print(f"error\t{exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            return run_experiment(cfg, out=fh)
    return run_experiment(cfg)


if __name__ == "__main__":
    raise SystemExit(main())
