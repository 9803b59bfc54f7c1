"""Crash consistency of the store's one log: torn tails, cuts at every
byte, and corruption before a valid commit marker."""

import os
import zlib

import pytest

from flutes import terms as T
from flutes.classifier import find_members
from flutes.cli import main
from flutes.errors import DuplicateNameError, StoreCorruptionError
from flutes.oracle import oracle_members
from flutes.rules import member_name, mk_analytic, run_analytic
from flutes.sexp import render_sexp
from flutes.store import LOG, Store
from flutes.syntax import parse_program
from flutes.taxonomy import mk_concept

FIRST = """
a := {"name"="A", "dob"="1"};
b := {"name"="B", "birth_date"="2"};
l1 := link(a, b);
"""
MORE = """
c := {"name"="C", "dob"="3"};
l2 := link(c, a);
"""


def add_selection(store, source):
    """x := {"d" = source.dob}: after `is-a date dob` the selection finds a
    "date" field first, so x's type can change with the taxonomy."""
    store.abox_insert("x", T.record(store.tax, [
        ("d", T.FieldSelection(T.term_name(source), mk_concept("dob")))]))


def add(store, text):
    for d in parse_program(text, store.tax, known=store.term_names()):
        store.abox_insert(d.name, d.body)


def insert(store, text):
    add(store, text)
    store.commit()


def small_store(path):
    """Two static classes and a subset class over them, and FIRST."""
    s = Store(path)
    s.same_as("dob", "birth_date")
    person = T.record_ty(s.tax, [("name", T.str_ty), ("dob", T.str_ty)])
    s.mk_kb_class("person", person)
    s.mk_kb_class("link", T.triple_ty("link", T.type_name("person"),
                                      T.type_name("person")))
    s.mk_kb_class("sender", T.subset_ty(
        T.var("p"), T.type_name("person"),
        T.exists("l", T.type_name("link"),
                 T.equals(T.triple("link", T.var("p"), T.var("q")), T.var("l")))))
    add(s, FIRST)
    return s


def run_session(path):
    """A small file-backed session; returns (log size, dump_state()) after
    each commit, and the log's bytes."""
    log = os.path.join(path, LOG)
    s = small_store(path)
    steps = [lambda: s.commit(),
             lambda: find_members(s),
             lambda: insert(s, MORE),
             lambda: s.same_as("colour", "color"),
             lambda: find_members(s),
             lambda: s.mk_kb_class("kept", s.kb_class("person").definition),
             lambda: run_analytic(s, mk_analytic(s, "keep", "person", "kept",
                                                 lambda t: t)),
             lambda: find_members(s),
             # the static scans type x before the edit and strd's after it,
             # which replay derives only if it forgets the types as well
             lambda: insert(s, 'e := {"date"="2020", "dob"=1.0};'),
             lambda: add_selection(s, "e"),
             lambda: find_members(s),
             lambda: s.add_is_a("date", "dob"),
             lambda: s.mk_kb_class("strd", T.record_ty(s.tax, [("d", T.str_ty)])),
             lambda: find_members(s)]
    states = [(0, Store().dump_state())]
    for step in steps:
        step()
        s.commit()
        if os.path.getsize(log) != states[-1][0]:
            states.append((os.path.getsize(log), s.dump_state()))
    s.close()
    with open(log, "rb") as fh:
        return states, fh.read()


def assert_matches_oracle(store):
    """Each class holds the oracle's members by name.  A static class's
    content-named members are the ones `keep` asserted, which the oracle
    does not derive: their terms are ones it holds under other names."""
    find_members(store)
    ext = oracle_members(store)
    for name, cls in store.classes.items():
        engine = dict(cls.members)
        if not cls.is_subset:
            asserted = [n for n, t in engine.items()
                        if n == member_name(name, render_sexp(t))]
            assert ({engine.pop(n) for n in asserted}
                    <= set(ext[name].values())), name
        assert engine == ext[name], name


def write_log(path, data: bytes):
    # overwrite in place, then cut to length: truncating a file to 0 first,
    # as opening it with "wb" does, can block for tens of milliseconds
    fd = os.open(os.path.join(path, LOG), os.O_WRONLY | os.O_CREAT, 0o644)
    try:
        os.pwrite(fd, data, 0)
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return run_session(str(tmp_path_factory.mktemp("session") / "kb"))


def test_session_has_several_batches(session):
    states, data = session
    assert len(states) >= 6
    assert data.count(b"\n(commit ") == len(states) - 1
    assert data.startswith(b"(flutes-log 5)\n")
    assert data.count(b"(flutes-log ") == 1


def test_the_session_derives_after_its_taxonomy_edit(session):
    states, data = session
    assert "member strd x " in states[-1][1]
    assert b'(member "strd"' not in data


def test_replay_applies_a_taxonomy_edit_as_the_live_edit_does(tmp_path):
    # x's type is inferred through the selection a.dob; the edit changes it
    # from {d: num} to {d: str}, so strd holds x only if the replayed edit
    # forgets the types inferred before it
    path = str(tmp_path / "kb")
    with Store(path) as s:
        insert(s, 'a := {"date"="2020", "dob"=1.0};')
        add_selection(s, "a")
        s.mk_kb_class("anyd", T.record_ty(s.tax, [("d", T.num_ty)]))
        find_members(s)
        s.add_is_a("date", "dob")
        s.mk_kb_class("strd", T.record_ty(s.tax, [("d", T.str_ty)]))
        find_members(s)
        state = s.dump_state()
        assert "x" in s.kb_class("strd").by_name
    with Store(path) as s:
        assert s.dump_state() == state


def test_every_cut_reopens_to_the_last_committed_state(session, tmp_path):
    """For every k, a log cut to k bytes reopens to the longest committed
    prefix whose marker ends at or before k, and classifies like the
    oracle afterwards."""
    states, data = session
    path = str(tmp_path / "kb")
    os.makedirs(path)
    for k in range(len(data) + 1):
        write_log(path, data[:k])
        good, state = max(st for st in states if st[0] <= k)
        with Store(path) as s:
            assert s.dump_state() == state, k
            assert s.torn_tail == (None if k == good else
                                   (k - good, data[good:k].count(b"\n")
                                    + (not data[:k].endswith(b"\n")))), k
            assert os.path.getsize(os.path.join(path, LOG)) == good
            assert_matches_oracle(s)


def test_a_flipped_byte_before_a_valid_marker_is_corruption(session, tmp_path):
    states, data = session
    path = str(tmp_path / "kb")
    os.makedirs(path)
    first_batch = states[1][0]   # two more markers follow it
    for i in range(first_batch):
        flipped = bytearray(data)
        flipped[i] ^= 0x01
        write_log(path, bytes(flipped))
        with pytest.raises(StoreCorruptionError, match=rf"{LOG}:\d+: "):
            Store(path)


def test_a_damaged_second_to_last_marker_is_corruption(session, tmp_path):
    """A flipped byte in the marker before the last batch must not drop
    both batches as a torn tail: the last marker still checks out against
    the records just before it, which no tear of the last batch leaves."""
    states, data = session
    path = str(tmp_path / "kb")
    os.makedirs(path)
    end = states[-2][0]
    start = data.rindex(b"(commit ", 0, end)
    line = data[:start].count(b"\n") + 1
    for i in range(start, end):
        flipped = bytearray(data)
        flipped[i] ^= 0x01
        write_log(path, bytes(flipped))
        with pytest.raises(StoreCorruptionError, match=rf"{LOG}:{line}: "):
            Store(path)


@pytest.mark.parametrize("record, want", [
    ('(term "x" {})\n'.format(render_sexp(T.num_ty)), "term"),
    ('(class "c" {})\n'.format(render_sexp(T.num_f(1))), "type"),
], ids=["term-holding-a-type", "class-holding-a-term"])
def test_a_record_of_the_wrong_category_is_corruption(tmp_path, record, want):
    path = str(tmp_path / "kb")
    os.makedirs(path)
    records = b"(flutes-log 1)\n" + record.encode("utf-8")
    write_log(path, records + b"(commit 2 %d)\n" % zlib.crc32(records))
    with pytest.raises(StoreCorruptionError,
                       match=rf"{LOG}:2: expected a {want}, got"):
        Store(path)


def test_a_held_class_that_added_members_is_derived_on_replay(tmp_path):
    # the first disjunct waits for lim and the second adds a: the marks stay,
    # and the record carries the member count; no member record is logged
    path = str(tmp_path / "kb")
    p = T.var("p")

    def field(label):
        return T.FieldSelection(p, mk_concept(label))
    s = small_store(path)
    s.mk_kb_class("named", T.subset_ty(p, T.type_name("person"), T.exists(
        "q", T.type_name("person"), T.conj(T.equals(p, T.var("q")), T.disj(
            T.equals(field("name"), T.term_name("lim")),
            T.equals(field("dob"), T.string("1")))))))
    find_members(s)
    assert len(s.kb_class("named").members) == 1
    assert s.kb_class("named").dep_marks is None
    state = s.dump_state()
    s.close()
    with Store(path) as s:
        assert s.dump_state() == state
        insert(s, 'lim := "B";')
        find_members(s)
        assert len(s.kb_class("named").members) == 2
        assert s.kb_class("named").dep_marks == {"person": 2}
        state = s.dump_state()
    with Store(path) as s:
        assert s.dump_state() == state
    with open(os.path.join(path, LOG), "rb") as fh:
        data = fh.read()
    assert b"(member " not in data
    assert b'(watermark "named" 1 ())\n' in data
    assert b'(watermark "named" 2 (("person" 2)))\n' in data


def replace_record(data: bytes, old: bytes, new: bytes) -> bytes:
    """The log with one record replaced and its batch's marker recomputed."""
    at = data.index(old)
    start = data.rfind(b"(commit ", 0, at)
    start = 0 if start < 0 else data.index(b"\n", start) + 1
    end = data.index(b"(commit ", at)
    batch = data[start:end].replace(old, new)
    rest = data[data.index(b"\n", end) + 1:]
    return (data[:start] + batch + b"(commit %d %d)\n"
            % (batch.count(b"\n"), zlib.crc32(batch)) + rest)


def test_a_subset_record_that_judging_again_does_not_reach_is_corruption(
        tmp_path):
    path = str(tmp_path / "kb")
    s = small_store(path)
    find_members(s)
    s.close()
    with open(os.path.join(path, LOG), "rb") as fh:
        data = fh.read()
    record = b'(watermark "sender" 1 (("link" 1)))\n'
    line = data[:data.index(record)].count(b"\n") + 1
    write_log(path, replace_record(data, record, record.replace(b" 1 ", b" 2 ")))
    with pytest.raises(StoreCorruptionError,
                       match=rf"{LOG}:{line}: judging class 'sender' again "
                             r"reaches \(1, \{'link': 1\}\), not \(2, "):
        Store(path)


def test_a_promote_record_that_promoting_again_does_not_reach_is_corruption(
        tmp_path):
    path = str(tmp_path / "kb")
    s = small_store(path)
    find_members(s)
    s.close()
    with open(os.path.join(path, LOG), "rb") as fh:
        data = fh.read()
    record = b"(promote 3)\n"     # a, b and l1
    assert data.count(b"(promote ") == 1
    line = data[:data.index(record)].count(b"\n") + 1
    write_log(path, replace_record(data, record, b"(promote 4)\n"))
    with pytest.raises(StoreCorruptionError,
                       match=rf"{LOG}:{line}: promoting again types 3 terms, "
                             r"not 4"):
        Store(path)


@pytest.mark.parametrize("version, record, want", [
    (4, '(promote "a")', "a promote record counts typed terms"),
    (3, "(promote 1)", "a version-3 promote record names a term"),
    (4, "(promote 1.7)", "1.7 is not a count"),
    (4, "(promote -1)", "-1.0 is not a count"),
], ids=["name-in-version-4", "count-in-version-3", "fractional-count",
        "negative-count"])
def test_a_promote_record_of_the_other_format_is_corruption(tmp_path, version,
                                                           record, want):
    path = str(tmp_path / "kb")
    os.makedirs(path)
    records = (f'(flutes-log {version})\n(term "a" (num 1.0))\n{record}\n'
               ).encode()
    write_log(path, records + b"(commit 3 %d)\n" % zlib.crc32(records))
    with pytest.raises(StoreCorruptionError, match=rf"{LOG}:3: {want}"):
        Store(path)


@pytest.mark.parametrize("records, line, want", [
    ("(flutes-log 4.5)", 1, "4.5 is not a count"),
    ('(flutes-log "4")', 1, "'4' is not a count"),
    ('(flutes-log 4)\n(term "a" (str "x"))\n(promote 1)\n(class "c" (strty))\n'
     '(watermark "c" 1.9 ())', 5, "1.9 is not a count"),
    ('(flutes-log 4)\n(term "a" (str "x"))\n(promote 1)\n(class "c" (strty))\n'
     '(watermark "c" -1 ())', 5, "-1.0 is not a count"),
    ('(flutes-log 4)\n(term "a" (str "x"))\n(class "d" (strty))\n'
     '(class "c" (subsetty (var x) (tyalias d) (exists y (tyalias d) '
     '(pred eq (var x) (var y)))))\n(promote 1)\n(watermark "d" 1 ())\n'
     '(watermark "c" 1 (("d" 1.5)))', 7, "1.5 is not a count"),
], ids=["fractional-version", "quoted-version", "fractional-watermark",
        "negative-watermark", "fractional-dependency-mark"])
def test_a_count_that_is_not_a_non_negative_integer_is_corruption(
        tmp_path, records, line, want):
    path = str(tmp_path / "kb")
    os.makedirs(path)
    records = (records + "\n").encode()
    write_log(path, records + b"(commit %d %d)\n" % (records.count(b"\n"),
                                                   zlib.crc32(records)))
    with pytest.raises(StoreCorruptionError, match=rf"{LOG}:{line}: {want}"):
        Store(path)


@pytest.mark.parametrize("record, want", [
    ('(class "c" (tyalias b))', "class 'c' references unknown type 'b'"),
    ('(class "a" (numty))', "class 'a' already defined"),
], ids=["undefined-reference", "repeated-name"])
def test_a_class_record_that_definition_refuses_is_corruption(tmp_path, record,
                                                               want):
    path = str(tmp_path / "kb")
    os.makedirs(path)
    records = ('(flutes-log 2)\n(class "a" (strty))\n' + record + "\n").encode()
    write_log(path, records + b"(commit 3 %d)\n" % zlib.crc32(records))
    with pytest.raises(StoreCorruptionError, match=rf"{LOG}:3: {want}"):
        Store(path)


@pytest.mark.parametrize("record, want", [
    ('(term "a" (str "x"))', "term 'a' already bound"),
    ('(term "b" (list (alias b)))', "inserting 'b' would create an alias cycle"),
], ids=["repeated-name", "alias-cycle"])
def test_a_term_record_that_insertion_refuses_is_corruption(tmp_path, record,
                                                            want):
    # abox_insert and replay store a term through the one _put_term, so
    # replay refuses what a live insert refuses, naming the line
    path = str(tmp_path / "kb")
    os.makedirs(path)
    records = ('(flutes-log 3)\n(term "a" (num 1.0))\n' + record + "\n").encode()
    write_log(path, records + b"(commit 3 %d)\n" % zlib.crc32(records))
    with pytest.raises(StoreCorruptionError, match=rf"{LOG}:3: {want}"):
        Store(path)


def test_a_live_insert_of_a_bound_name_is_refused_before_logging(tmp_path):
    path = str(tmp_path / "kb")
    with Store(path) as s:
        s.abox_insert("a", T.num_f(1))
        with pytest.raises(DuplicateNameError):
            s.abox_insert("a", T.string("x"))
        state = s.dump_state()
    with Store(path) as s:
        assert s.dump_state() == state
        assert s.lookup("a") == T.num_f(1)


class TestTornTail:
    def two_commits(self, path):
        """A store of two batches; returns the state and log size after the
        first, and the log's bytes."""
        s = small_store(path)
        find_members(s)
        committed = s.dump_state()
        size = os.path.getsize(os.path.join(path, LOG))
        add(s, MORE)
        find_members(s)
        s.close()
        with open(os.path.join(path, LOG), "rb") as fh:
            return committed, size, fh.read()

    def reopen_and_extend(self, path, expected_state):
        """The repaired store opens to the expected state, its next commit
        appends after the cut, and it then reopens equal."""
        with Store(path) as s:
            assert s.dump_state() == expected_state
            insert(s, 'e := {"name"="E", "dob"="5"};')
            find_members(s)
            state = s.dump_state()
        with Store(path) as s:
            assert s.torn_tail is None
            assert s.dump_state() == state
            assert s.lookup("e") is not None

    def test_ten_bytes_cut_off_the_end(self, tmp_path):
        path = str(tmp_path / "kb")
        committed, size, data = self.two_commits(path)
        write_log(path, data[:-10])
        with Store(path) as s:
            assert s.torn_tail == (len(data) - 10 - size,
                                   data[size:-10].count(b"\n") + 1)
            assert s.dump_state() == committed
        assert os.path.getsize(os.path.join(path, LOG)) == size
        self.reopen_and_extend(path, committed)

    def test_every_cut_inside_the_last_batch(self, tmp_path):
        path = str(tmp_path / "kb")
        committed, size, data = self.two_commits(path)
        for k in range(size + 1, len(data)):
            write_log(path, data[:k])
            with Store(path) as s:
                assert s.torn_tail[0] == k - size
            assert os.path.getsize(os.path.join(path, LOG)) == size
            self.reopen_and_extend(path, committed)

    def test_junk_after_the_last_marker(self, tmp_path):
        path = str(tmp_path / "kb")
        self.two_commits(path)
        with Store(path) as s:
            full = s.dump_state()
        junk = b'(term "x" (num 1.0))\n(commit 1 0)\n\x00\xff(garb'
        with open(os.path.join(path, LOG), "ab") as fh:
            fh.write(junk)
        with Store(path) as s:
            assert s.torn_tail == (len(junk), 3)
            assert s.lookup("x") is None
        self.reopen_and_extend(path, full)

    def test_cli_reports_the_repair(self, tmp_path, capsys):
        path = str(tmp_path / "kb")
        self.two_commits(path)
        with open(os.path.join(path, LOG), "ab") as fh:
            fh.write(b"(term")
        script = tmp_path / "script.txt"
        script.write_text("stats\n")
        assert main(["--store", path, "--script", str(script)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "torn_tail\t5"
        assert sum(line.startswith("torn_tail") for line in lines) == 1
        assert main(["--store", path, "--script", str(script)]) == 0
        assert "torn_tail" not in capsys.readouterr().out
