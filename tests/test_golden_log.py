"""The log's bytes are pinned across versions.

A fixed file-backed session writes a log whose records cover every head of
the storage grammar (the `sink` class record holds all of them at once),
a positional label, a quoted label, escaped strings, and the `same-as`,
`is-a`, `term`, `promote`, `class`, `member` and `watermark` records over
three commits.  The session must write exactly the committed golden log
of the current format (version 4, which logs only asserted members and one
`promote` record per promotion), and that log, the session's own and the
golden logs of versions 1 to 3 (which promote by name, the first two also
logged derived members; they are kept byte for byte) must reopen to the
session's state.  A generated corpus loaded through the command loop must
build a store and write a log with pinned digests.  Run this file as a
script to rewrite the version-4 golden log after a deliberate change of the
storage format.
"""

import hashlib
import io
import os
import shutil
import sys
import tempfile

from flutes import terms as T
from flutes.benchgen import GenConfig, generate
from flutes.classifier import find_members
from flutes.cli import Session
from flutes.rules import member_name
from flutes.sexp import render_sexp
from flutes.store import LOG, Store
from flutes.syntax import parse_program
from flutes.taxonomy import mk_concept

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
GOLDEN = os.path.join(DATA, "golden_log_v4.fsx")
GOLDEN_V3 = os.path.join(DATA, "golden_log_v3.fsx")
GOLDEN_V2 = os.path.join(DATA, "golden_log_v2.fsx")
GOLDEN_V1 = os.path.join(DATA, "golden_log.fsx")

PEOPLE = """
a := {"name"="A", "dob"="1984-06-27"};
b := {"name"="B", "birth_date"="1990-01-02"};
t1 := {"amount"=500.0, "type"=check()};
l1 := link(a, b);
"""


def every_term_head(x: T.Term) -> T.Term:
    """A record holding each term head once, around `x`."""
    return T.Record(T.sort_fields([
        (mk_concept("num"), T.num_f(-0.1)),
        (mk_concept("str"), T.Str('q"u\\o\nte\t\r')),
        (mk_concept("atom"), T.atom("check")),
        (mk_concept("list"), T.List((T.num_f(1), T.List(())))),
        (mk_concept("bottom"), T.Bottom(mk_concept("dob"))),
        (mk_concept("select"),
         T.FieldSelection(T.term_name("a"), mk_concept("name"))),
        (mk_concept("with space"), x),
        (mk_concept("pos"), T.triple("link", T.num_f(1e16), T.num_f(2.5e-7))),
    ]))


def every_type_and_prop_head(tax) -> T.SubsetTy:
    x = T.var("x")
    ty = T.record_ty(tax, [
        ("n", T.num_ty), ("s", T.str_ty), ("v", T.void_ty),
        ("l", T.ListTy(T.num_ty)), ("e", T.enum_ty(["check", "cash"])),
        ("r", T.record_ty(tax, [("who", T.type_name("person"))]))])
    n, e, r = (T.FieldSelection(x, mk_concept(l)) for l in "ner")
    prop = T.exists("k", T.type_name("link"), T.conj(
        T.equals(T.triple("link", r, T.var("y")), T.var("k")),
        T.disj(T.conj(T.BuiltinPred(T.PredOp.LT, (n, T.num_f(1))),
                      T.Not(T.BuiltinPred(T.PredOp.GE, (n, T.num_f(5))))),
               T.disj(T.conj(T.BuiltinPred(T.PredOp.LE, (T.num_f(0), n)),
                             T.BuiltinPred(T.PredOp.GT,
                                           (T.num_f(9), T.num_f(8)))),
                      T.disj(T.InSequence(e, (T.atom("check"),
                                              every_term_head(x))),
                             T.conj(T.TRUE, T.FALSE))))))
    return T.subset_ty(x, ty, prop)


def golden_session(path: str) -> str:
    """Run the fixed session in `path`; return dump_state() before close."""
    s = Store(path)
    s.same_as("dob", "birth_date")
    s.add_is_a("check", "payment")
    s.mk_kb_class("person", T.record_ty(s.tax, [("name", T.str_ty),
                                                 ("dob", T.str_ty)]))
    s.mk_kb_class("link", T.triple_ty("link", T.type_name("person"),
                                      T.type_name("person")))
    s.mk_kb_class("sender", T.subset_ty(
        T.var("p"), T.type_name("person"),
        T.exists("l", T.type_name("link"),
                 T.equals(T.triple("link", T.var("p"), T.var("q")),
                          T.var("l")))))
    for d in parse_program(PEOPLE, s.tax, known=s.term_names()):
        s.abox_insert(d.name, d.body)
    s.abox_insert("odd", every_term_head(T.var("v")))
    s.commit()
    # an asserted member, which the judgement then derives as well: the log
    # holds a member record, and the state is that of the older sessions
    a = T.term_name("a")
    s.add_member("sender", member_name("sender", render_sexp(a)), a)
    find_members(s)
    s.mk_kb_class("sink", every_type_and_prop_head(s.tax))
    s.commit()
    state = s.dump_state()
    s.close()
    return state


def read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_session_writes_the_golden_log(tmp_path):
    path = str(tmp_path / "kb")
    state = golden_session(path)
    assert read(os.path.join(path, LOG)) == read(GOLDEN)
    with Store(path) as s:
        assert s.dump_state() == state


def assert_reopens_to_the_session_state(tmp_path, golden):
    state = golden_session(str(tmp_path / "kb"))
    other = str(tmp_path / "golden")
    os.makedirs(other)
    shutil.copyfile(golden, os.path.join(other, LOG))
    with Store(other) as s:
        assert s.torn_tail is None
        assert s.dump_state() == state


def test_golden_log_reopens_to_the_session_state(tmp_path):
    assert_reopens_to_the_session_state(tmp_path, GOLDEN)


def test_version_3_golden_log_reopens_to_the_session_state(tmp_path):
    # its promote records name one term each
    assert_reopens_to_the_session_state(tmp_path, GOLDEN_V3)


def test_version_2_golden_log_reopens_to_the_session_state(tmp_path):
    # its subset member record replays, and its subset watermark only sets
    # the marks
    assert_reopens_to_the_session_state(tmp_path, GOLDEN_V2)


def test_version_1_golden_log_reopens_to_the_session_state(tmp_path):
    # its static member records replay, and the scans find them present
    assert_reopens_to_the_session_state(tmp_path, GOLDEN_V1)


def test_a_version_1_log_is_upgraded_by_its_next_batch(tmp_path):
    # an older reader stops at (flutes-log 4) instead of opening classes
    # with no members behind their watermarks, or reading a promote record
    # that counts
    path = str(tmp_path / "kb")
    os.makedirs(path)
    shutil.copyfile(GOLDEN_V1, os.path.join(path, LOG))
    with Store(path) as s:
        for d in parse_program('c := {"name"="C", "dob"="2001-01-01"};', s.tax):
            s.abox_insert(d.name, d.body)
        s.commit()
        s.abox_insert("d", T.num_f(1))
        find_members(s)
        state = s.dump_state()
    data = read(os.path.join(path, LOG))
    old = read(GOLDEN_V1)
    assert data.startswith(old)
    assert data[len(old):].startswith(b"(flutes-log 4)\n(term \"c\" ")
    assert data.count(b"(flutes-log ") == 2
    assert b'(member "person" "c"' not in data
    with Store(path) as s:
        assert s.dump_state() == state
        assert "c" in s.kb_class("person").by_name


def test_a_version_3_log_takes_promote_counts_after_its_upgrade(tmp_path):
    # a version-3 log promotes by name; the batch appended to it counts, and
    # the reopen applies both kinds in their order
    path = str(tmp_path / "kb")
    os.makedirs(path)
    shutil.copyfile(GOLDEN_V3, os.path.join(path, LOG))
    with Store(path) as s:
        for d in parse_program('c := {"name"="C", "dob"="2001-01-01"};'
                               'l2 := link(c, a);', s.tax, known=s.term_names()):
            s.abox_insert(d.name, d.body)
        find_members(s)
        state = s.dump_state()
    data = read(os.path.join(path, LOG))
    old = read(GOLDEN_V3)
    assert data.startswith(old)
    new = data[len(old):].decode("utf-8").splitlines()
    assert new[0] == "(flutes-log 4)"
    assert [line for line in new if line.startswith("(promote ")] == [
        "(promote 6)"]
    with Store(path) as s:
        assert s.dump_state() == state
        assert [n for n, _ in s.typed_list][-2:] == ["c", "l2"]


def test_golden_log_covers_the_records_and_heads():
    data = read(GOLDEN).decode("utf-8")
    assert data.startswith("(flutes-log 4)\n")
    for record in ("flutes-log", "same-as", "is-a", "term", "promote",
                   "class", "member", "watermark"):
        assert f"\n({record} " in "\n" + data, record
    assert data.count("\n(commit ") == 3
    # one record for the promotion of a, b, t1 and l1, none per term
    assert [line for line in data.splitlines()
            if line.startswith("(promote ")] == ["(promote 4)"]
    # only the asserted member is logged; the judgements derive the others
    assert [line.split()[1] for line in data.splitlines()
            if line.startswith("(member ")] == ['"sender"']
    (sink,) = [line for line in data.splitlines()
               if line.startswith('(class "sink" ')]
    heads = ("num str atom record list bottom select var alias "
             "numty strty voidty listty recordty enumty subsetty tyalias "
             "pred and or not exists true false inseq pos").split()
    for head in heads:
        assert f"({head} " in sink or f"({head})" in sink, head


# Taken with the loader that parsed through per-token peek/next calls and
# sorted every record's labels afresh, before the list-returning scanner,
# the index-based parser and the record-shape memo: the loader must build
# the same store and write the same log, byte for byte.  The log digests
# are those of format 4: only the version record and the first batch's
# checksum differ from format 3's (91,639 bytes, SHA-1 04ee7c85...), since
# `load` promotes nothing.
CORPUS_DUMP_SHA1 = "fb741e2498ddb5b203ac9208e9fa77dc80e08965"
CORPUS_LOG_BYTES = 91638
CORPUS_LOG_SHA1 = "6925e0f1a3d7bf3640d259e361ad23d27090e473"


def test_the_loader_reproduces_a_pinned_corpus_store(tmp_path):
    corpus = tmp_path / "corpus.fl"
    corpus.write_text(generate(GenConfig(persons=300, transactions=150,
                                         extra_attrs=5, seed=7)),
                      encoding="utf-8")
    path = str(tmp_path / "kb")
    out = io.StringIO()
    with Store(path) as store:
        session = Session(store, out, timings=False)
        session.run_line("same_as dob birth_date")
        session.run_line(f"load {corpus}")
        state = store.dump_state()
    assert out.getvalue().splitlines()[-1] == "inserted\t750"
    assert hashlib.sha1(state.encode("utf-8")).hexdigest() == CORPUS_DUMP_SHA1
    data = read(os.path.join(path, LOG))
    assert len(data) == CORPUS_LOG_BYTES
    assert hashlib.sha1(data).hexdigest() == CORPUS_LOG_SHA1
    with Store(path) as store:
        assert store.dump_state() == state


if __name__ == "__main__":
    # rewrite the version-4 golden log from the session; the older ones stay
    # as committed
    with tempfile.TemporaryDirectory() as tmp:
        golden_session(os.path.join(tmp, "kb"))
        shutil.copyfile(os.path.join(tmp, "kb", LOG), GOLDEN)
    print(f"wrote {GOLDEN}", file=sys.stderr)
