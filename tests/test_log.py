"""Crash consistency of the store's one log: torn tails, cuts at every
byte, and corruption before a valid commit marker."""

import os

import pytest

from flutes import terms as T
from flutes.classifier import find_members
from flutes.cli import main
from flutes.errors import StoreCorruptionError
from flutes.oracle import oracle_extensions
from flutes.rules import mk_analytic, run_analytic
from flutes.store import LOG, Store
from flutes.syntax import parse_program

FIRST = """
a := {"name"="A", "dob"="1"};
b := {"name"="B", "birth_date"="2"};
l1 := link(a, b);
"""
MORE = """
c := {"name"="C", "dob"="3"};
l2 := link(c, a);
"""


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
    find_members(store)
    ext = oracle_extensions(store)
    for name, cls in store.classes.items():
        assert set(cls.member_terms) == ext[name], name


def write_log(path, data: bytes):
    with open(os.path.join(path, LOG), "wb") as fh:
        fh.write(data)


@pytest.fixture(scope="module")
def session(tmp_path_factory):
    return run_session(str(tmp_path_factory.mktemp("session") / "kb"))


def test_session_has_several_batches(session):
    states, data = session
    assert len(states) >= 6
    assert data.count(b"\n(commit ") == len(states) - 1
    assert data.startswith(b"(flutes-log 1)\n")


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
