import os
import subprocess
import sys

import pytest

from flutes import store as store_module
from flutes.classifier import find_members, promote_untyped
from flutes.errors import (AliasCycleError, DuplicateNameError,
                           MalformedRecordError, StoreCorruptionError,
                           StoreError, TermError)
from flutes.store import LOG, Store
from flutes.sexp import read_node
from flutes.syntax import parse_program
from flutes.taxonomy import mk_concept, positional
from flutes import terms as T

from termgen import build_worked_store


CORPUS = """
joe := {"name"="Joe", "birth_date"="1984-06-27"};
sue := {"name"="Sue", "dob"="1941-12-07"};
t1 := {"amount" = 500.0, "type"=check()};
o1 := orig-of(joe, t1);
r1 := recv-of(sue, t1);
"""


def load_corpus(store, promoted=()):
    """Insert the corpus; the `promoted` terms go first and are promoted
    before the others arrive."""
    decls = parse_program(CORPUS, store.tax)
    for d in decls:
        if d.name in promoted:
            store.abox_insert(d.name, d.body)
    if promoted:
        promote_untyped(store)
    for d in decls:
        if d.name not in promoted:
            store.abox_insert(d.name, d.body)


def person_ty(store):
    return T.record_ty(store.tax, [("name", T.str_ty), ("dob", T.str_ty)])


class TestInsert:
    def test_insert_lands_in_untyped(self):
        s = Store()
        load_corpus(s)
        assert set(s.untyped) == {"joe", "sue", "t1", "o1", "r1"}
        assert s.lookup("joe") is not None

    def test_duplicate_name_rejected(self):
        s = Store()
        s.abox_insert("joe", T.num_f(1))
        with pytest.raises(DuplicateNameError):
            s.abox_insert("joe", T.num_f(2))
        promote_untyped(s)
        with pytest.raises(DuplicateNameError):
            s.abox_insert("joe", T.num_f(3))

    def test_name_of_a_class_member_rejected(self):
        # a subset member's name is in the containment graph, not among the
        # terms; inserting a term under it would overwrite its adjacency
        s = build_worked_store()
        find_members(s)
        mname, member = s.kb_class("fi_related").members[0]
        refs = set(s.contains_map[mname])
        with pytest.raises(DuplicateNameError):
            s.abox_insert(mname, T.num_f(1))
        assert set(s.contains_map[mname]) == refs == T.alias_names(member)
        assert mname not in s.untyped

    def test_alias_cycle_rejected(self):
        s = Store()
        s.abox_insert("a", T.List((T.term_name("b"),)))
        with pytest.raises(AliasCycleError):
            s.abox_insert("b", T.List((T.term_name("a"),)))

    def test_self_reference_rejected(self):
        s = Store()
        with pytest.raises(AliasCycleError):
            s.abox_insert("a", T.List((T.term_name("a"),)))

    def test_longer_cycle_rejected(self):
        s = Store()
        s.abox_insert("a", T.List((T.term_name("b"),)))
        s.abox_insert("b", T.List((T.term_name("c"),)))
        with pytest.raises(AliasCycleError):
            s.abox_insert("c", T.List((T.term_name("a"),)))

    def test_forward_references_allowed(self):
        s = Store()
        s.abox_insert("r1", T.triple("recv-of", T.term_name("sue"),
                                     T.term_name("t2")))
        assert set(s.contained_by_map["t2"]) == {"r1"}


def _refs(*names):
    return T.List(tuple(T.term_name(n) for n in names))


class TestInsertAll:
    """A batch of terms is stored whole or not at all."""

    @pytest.mark.parametrize("batch, error", [
        ([("a", T.num_f(1)), ("b", T.num_f(3))], DuplicateNameError),
        ([("a", T.num_f(1)), ("a", T.num_f(3))], DuplicateNameError),
        ([("a", _refs("c")), ("c", _refs("a"))], AliasCycleError),
        ([("a", _refs("x")), ("c", _refs("w"))], AliasCycleError),
        ([("a", _refs("y", "x")), ("", T.num_f(1))], StoreError),
    ], ids=["bound-name", "name-repeated-in-batch", "cycle-in-batch",
            "cycle-through-the-store", "bad-name"])
    def test_refused_batch_stores_nothing(self, tmp_path, batch, error):
        path = str(tmp_path / "kb")
        s = Store(path)
        s.abox_insert_all([("b", T.num_f(2)), ("w", _refs("c", "x"))])
        s.commit()
        before = (s.dump_state(), {k: set(v) for k, v in s.contained_by_map.items()})
        with pytest.raises(error):
            s.abox_insert_all(batch)
        assert s.lookup("a") is None
        assert (s.dump_state(),
                {k: set(v) for k, v in s.contained_by_map.items()}) == before
        s.abox_insert_all([("c", T.num_f(4))])
        s.close()
        with Store(path) as s:
            assert sorted(s.term_names()) == ["b", "c", "w"]

    def test_batch_refers_to_itself_and_forward(self):
        s = Store()
        s.abox_insert_all([("a", _refs("b", "z")), ("b", T.num_f(1))])
        assert set(s.contains_map["a"]) == {"b", "z"}
        assert {k: set(v) for k, v in s.contained_by_map.items()} == {
            "b": {"a"}, "z": {"a"}}


def _snapshot(s):
    """Everything an insert or a member could change, as plain values."""
    return (s.dump_state(), dict(s.contains_map),
            {k: list(v) for k, v in s.contained_by_map.items()}, list(s._batch),
            {name: (list(c.members), dict(c.by_name),
                    {k: list(v) for k, v in c.by_alias.items()})
             for name, c in s.classes.items()})


class TestRenderFailure:
    """A record that fails to render leaves the store exactly as it was."""

    def test_insert_all(self, tmp_path):
        path = str(tmp_path / "kb")
        s = Store(path)
        s.abox_insert("b", T.List((T.term_name("q"),)))
        before = _snapshot(s)
        with pytest.raises(AttributeError):    # a Str holding an int
            s.abox_insert_all([("a", T.Str("ok")), ("x", T.Str(5))])
        with pytest.raises(AttributeError):
            s.abox_insert("y", T.List((T.term_name("q"), T.Str(5))))
        assert _snapshot(s) == before
        s.close()
        with Store(path) as s:
            assert list(s.term_names()) == ["b"]

    def test_add_member(self, tmp_path):
        path = str(tmp_path / "kb")
        s = Store(path)
        s.mk_kb_class("c", T.ListTy(T.str_ty))
        assert s.add_member("c", "m0", T.List((T.term_name("q"),)))
        before = _snapshot(s)
        with pytest.raises(AttributeError):
            s.add_member("c", "m1", T.List((T.term_name("q"), T.Str(5))))
        assert _snapshot(s) == before
        s.close()
        with Store(path) as s:
            assert [m for m, _ in s.kb_class("c").members] == ["m0"]


class TestClasses:
    def test_register_and_resolve(self):
        s = Store()
        s.mk_kb_class("person", person_ty(s))
        s.mk_kb_class("orig_of", T.triple_ty("orig-of", T.type_name("person"),
                                             T.num_ty))
        resolved = s.resolve_class_type("orig_of")
        assert resolved.fields[0][1].fields[0][1] == person_ty(s)

    def test_duplicate_class_rejected(self):
        s = Store()
        s.mk_kb_class("person", person_ty(s))
        with pytest.raises(DuplicateNameError):
            s.mk_kb_class("person", T.num_ty)

    def test_dangling_alias_rejected(self):
        s = Store()
        with pytest.raises(StoreError, match="nonexistent"):
            s.mk_kb_class("bad", T.type_name("nonexistent"))

    def test_invalid_class_name_rejected(self):
        s = Store()
        for name in ["", "1x", "a b", "x/y", "a#b"]:
            with pytest.raises(StoreError):
                s.mk_kb_class(name, T.num_ty)

    def test_member_dedup(self):
        # a member is a named node: a name is held once, equal terms twice
        s = Store()
        s.mk_kb_class("c", T.num_ty)
        assert s.add_member("c", "m1", T.num_f(1))
        assert not s.add_member("c", "m1", T.num_f(1))
        assert s.add_member("c", "m2", T.num_f(1))
        assert s.kb_class("c").members == [("m1", T.num_f(1)),
                                           ("m2", T.num_f(1))]


class TestContainment:
    def test_contains_and_contained_by(self):
        s = Store()
        load_corpus(s)
        assert set(s.contains_map["o1"]) == {"joe", "t1"}
        assert set(s.contains_map["joe"]) == set()
        assert set(s.contained_by_map["t1"]) == {"o1", "r1"}
        assert "o1" not in s.contained_by_map

    def test_adjacency_inverse_property(self):
        s = Store()
        load_corpus(s)
        for name, refs in s.contains_map.items():
            for r in refs:
                assert name in s.contained_by_map[r]
        for name, holders in s.contained_by_map.items():
            for h in holders:
                assert name in s.contains_map[h]

    def test_nearest_radii(self):
        s = Store()
        load_corpus(s)
        s.mk_kb_class("person", person_ty(s))
        coerced_joe = T.record(s.tax, [("dob", T.string("1984-06-27")),
                                       ("name", T.string("Joe"))])
        coerced_sue = T.record(s.tax, [("dob", T.string("1941-12-07")),
                                       ("name", T.string("Sue"))])
        s.add_member("person", "joe", coerced_joe)
        s.add_member("person", "sue", coerced_sue)
        # joe-o1-t1-r1-sue is the only path between the two persons
        assert s.nearest(0, "joe", "person") == {"joe"}
        assert s.nearest(2, "joe", "person") == {"joe"}
        assert s.nearest(3, "joe", "person") == {"joe"}
        assert s.nearest(4, "joe", "person") == {"joe", "sue"}
        assert s.nearest(9, "joe", "person") == {"joe", "sue"}

    def test_nearest_zero_radius_nonmember(self):
        s = Store()
        load_corpus(s)
        s.mk_kb_class("person", person_ty(s))
        assert s.nearest(0, "t1", "person") == set()

    def test_nearest_empty_class(self):
        s = Store()
        load_corpus(s)
        s.mk_kb_class("empty", T.num_ty)
        assert s.nearest(5, "joe", "empty") == set()

    def test_nearest_unknown_inputs(self):
        s = Store()
        load_corpus(s)
        s.mk_kb_class("person", person_ty(s))
        with pytest.raises(StoreError):
            s.nearest(1, "ghost", "person")
        with pytest.raises(StoreError):
            s.nearest(1, "joe", "nope")


class TestPersistence:
    def build(self, path):
        s = Store(path)
        s.same_as("dob", "birth_date")
        s.add_is_a("check", "payment")
        load_corpus(s, promoted=("joe", "t1"))
        s.mk_kb_class("person", person_ty(s))
        s.add_member("person", "joe",
                     T.record(s.tax, [("dob", T.string("1984-06-27")),
                                      ("name", T.string("Joe"))]))
        s.set_watermark("person")
        s.mk_kb_class("pair", T.subset_ty(
            T.var("x"), T.type_name("person"),
            T.exists("y", T.type_name("person"), T.equals(T.var("x"), T.var("y")))))
        s.set_watermark("pair")
        s.close()
        return s

    def test_durability_round_trip(self, tmp_path):
        path = str(tmp_path / "kb")
        original = self.build(path)
        files = {f: open(os.path.join(path, f), "rb").read()
                 for f in os.listdir(path) if f.endswith(".fsx")}
        reopened = Store(path)
        state = reopened.dump_state()
        reopened.close()
        assert state == original.dump_state()
        # reopening never rewrites history
        for f, blob in files.items():
            assert open(os.path.join(path, f), "rb").read() == blob

    def test_reopened_collections_behave(self, tmp_path):
        path = str(tmp_path / "kb")
        self.build(path)
        with Store(path) as s:
            assert set(s.untyped) == {"sue", "o1", "r1"}
            assert [n for n, _ in s.typed_list] == ["joe", "t1"]
            assert s.tax.equiv(mk_concept("dob"), mk_concept("birth_date"))
            assert s.kb_class("person").watermark == 2
            assert s.kb_class("pair").dep_marks == {"person": 1}
            assert set(s.contained_by_map["t1"]) == {"o1", "r1"}
            assert [m for m, _ in s.kb_class("person").members] == ["joe"]

    def test_lock_excludes_second_session(self, tmp_path):
        path = str(tmp_path / "kb")
        s = Store(path)
        try:
            with pytest.raises(StoreError, match="locked"):
                Store(path)
        finally:
            s.close()
        s2 = Store(path)
        s2.close()

    def test_stale_lock_of_a_dead_pid_opens(self, tmp_path):
        path = str(tmp_path / "kb")
        os.makedirs(path)
        with open(os.path.join(path, "lock"), "w") as fh:
            fh.write("999999")
        s = Store(path)
        try:
            with pytest.raises(StoreError, match=rf"locked .*\(pid {os.getpid()}\)"):
                Store(path)
        finally:
            s.close()

    def test_session_that_dies_holding_the_lock_does_not_block(self, tmp_path):
        path = str(tmp_path / "kb")
        code = ("import os, sys\n"
                "from flutes import Store, terms\n"
                "s = Store(sys.argv[1])\n"
                "s.abox_insert('a', terms.num_f(1))\n"
                "s.commit()\n"
                "os._exit(0)  # dies without close()\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code, path], env=env,
                       check=True, timeout=60)
        assert os.path.exists(os.path.join(path, "lock"))
        with Store(path) as s:
            assert s.lookup("a") == T.num_f(1)

    def two_batches(self, path):
        """The built store plus a second batch, so that the first batch has
        a valid marker after it; returns the log's lines."""
        self.build(path)
        with Store(path) as s:
            s.abox_insert("late", T.string("x"))
        with open(os.path.join(path, LOG), "rb") as fh:
            return fh.read().splitlines(keepends=True)

    def write_log(self, path, lines):
        with open(os.path.join(path, LOG), "wb") as fh:
            fh.write(b"".join(lines))

    def test_failed_open_releases_the_lock(self, tmp_path):
        path = str(tmp_path / "kb")
        good = self.two_batches(path)
        self.write_log(path, good[:2] + [b'(term "x" (unknownhead))\n'] + good[2:])
        with pytest.raises(StoreCorruptionError):
            Store(path)
        self.write_log(path, good)
        Store(path).close()

    def test_corrupt_line_detected(self, tmp_path):
        path = str(tmp_path / "kb")
        good = self.two_batches(path)
        self.write_log(path, good[:2] + [b'(term "x" (unknownhead))\n'] + good[2:])
        with pytest.raises(StoreCorruptionError, match=f"{LOG}:3: "):
            Store(path)

    def test_unparseable_line_detected(self, tmp_path):
        path = str(tmp_path / "kb")
        good = self.two_batches(path)
        self.write_log(path, good[:2] + [b'(member "person" "m"\n'] + good[2:])
        with pytest.raises(StoreCorruptionError,
                           match=f"{LOG}:3: unbalanced parenthesis"):
            Store(path)

    def test_checksum_mismatch_before_a_valid_marker_detected(self, tmp_path):
        path = str(tmp_path / "kb")
        good = self.two_batches(path)
        marker = next(i for i, line in enumerate(good) if line.startswith(b"(commit"))
        # a record that still decodes, changed in place
        bad = good[marker - 1].replace(b"1", b"2", 1)
        assert bad != good[marker - 1]
        self.write_log(path, good[:marker - 1] + [bad] + good[marker:])
        with pytest.raises(StoreCorruptionError,
                           match=f"{LOG}:{marker + 1}: record count or checksum"):
            Store(path)

    def test_non_finite_number_refused_before_the_log(self, tmp_path):
        path = str(tmp_path / "kb")
        with Store(path) as s:
            s.abox_insert("a", T.num_f(1))
            with pytest.raises(TermError):
                s.abox_insert("c", T.record(s.tax, [("v", T.Num(float("inf")))]))
        with Store(path) as s:
            assert set(s.untyped) == {"a"}

    @pytest.mark.parametrize("kind", ["term", "class", "nested"])
    def test_repeated_label_refused_before_the_log(self, tmp_path, kind):
        a = mk_concept("a")
        term = T.Record(((a, T.num_f(1)), (a, T.num_f(2))))
        ty = T.RecordTy(((a, T.num_ty), (a, T.num_ty)))
        path = str(tmp_path / "kb")
        with Store(path) as s:
            s.abox_insert("ok", T.num_f(1))
            with pytest.raises(MalformedRecordError, match="repeated label"):
                if kind == "term":
                    s.abox_insert("x", term)
                elif kind == "class":
                    s.mk_kb_class("c", ty)
                else:
                    s.mk_kb_class("c", T.subset_ty(
                        T.var("x"), T.num_ty,
                        T.equals(T.var("x"), T.List((term,)))))
        with Store(path) as s:
            assert set(s.untyped) == {"ok"} and s.classes == {}

    def test_log_holding_a_repeated_label_does_not_open(self, tmp_path):
        # an older version logged such a class; replay names the record
        path = str(tmp_path / "kb")
        with Store(path) as s:
            s._log("class", "c", T.RecordTy(((mk_concept("a"), T.num_ty),
                                            (mk_concept("a"), T.num_ty))))
            s.commit()
        with pytest.raises(StoreCorruptionError,
                           match=f"{LOG}:2: repeated label a"):
            Store(path)

    def test_old_layout_refused(self, tmp_path):
        path = tmp_path / "kb"
        path.mkdir()
        (path / "catalog.fsx").write_text('(same-as "a" "b")\n')
        (path / "untyped.fsx").write_text('(term "x" (num 1.0))\n')
        for _ in range(2):  # the refusal releases the lock
            with pytest.raises(StoreCorruptionError,
                               match="old one-file-per-collection layout"):
                Store(str(path))
        assert not (path / LOG).exists()

    def test_repeated_find_members_leave_catalog_alone(self, tmp_path):
        path = str(tmp_path / "kb")
        s = build_worked_store(path)
        find_members(s)
        log = os.path.join(path, LOG)
        size = os.path.getsize(log)
        for _ in range(50):
            find_members(s)
        assert os.path.getsize(log) == size
        state = s.dump_state()
        s.close()
        with Store(path) as reopened:
            assert reopened.dump_state() == state

    def test_commit_makes_one_fsync(self, tmp_path, monkeypatch):
        path = str(tmp_path / "kb")
        synced = []
        real_fsync = os.fsync

        def fsync(fd):
            ino = os.fstat(fd).st_ino
            synced.extend(os.path.basename(p) for p in (path, os.path.join(path, LOG))
                          if os.stat(p).st_ino == ino)
            real_fsync(fd)

        monkeypatch.setattr(store_module.os, "fsync", fsync)
        s = Store(path)
        s.commit()
        assert synced == []                 # opening and an empty commit write nothing
        s.abox_insert("a", T.num_f(1))
        s.commit()
        assert synced == [LOG, "kb"]        # the new log, then its directory
        del synced[:]
        s.same_as("dob", "birth_date")
        s.abox_insert("b", T.num_f(2))
        s.commit()
        s.commit()
        assert synced == [LOG]              # one per non-empty commit
        s.close()
        assert synced == [LOG]
        Store(path).close()
        assert synced == [LOG]

    def test_log_unchanged_mid_batch(self, tmp_path):
        path = str(tmp_path / "kb")
        s = build_worked_store(path)
        s.commit()
        log = os.path.join(path, LOG)
        size = os.path.getsize(log)
        for i in range(500):
            s.same_as(f"label_{i:04d}_written_mid_batch", f"alias_{i:04d}")
        s.abox_insert("late", T.string("x"))
        assert os.path.getsize(log) == size
        s.commit()
        assert os.path.getsize(log) > size + 16384
        state = s.dump_state()
        s.close()
        with Store(path) as reopened:
            assert reopened.dump_state() == state
            assert reopened.tax.label_match(mk_concept("alias_0499"),
                                            mk_concept("label_0499_written_mid_batch"))

    def test_watermarks_follow_their_members(self, tmp_path):
        path = str(tmp_path / "kb")
        s = build_worked_store(path)
        find_members(s)
        for d in parse_program('t2 := {"amount" = 7.0, "type"=cc()};'
                               "o2 := orig-of(sue, t2); r2 := recv-of(joe, t2);",
                               s.tax, known=s.term_names()):
            s.abox_insert(d.name, d.body)
        find_members(s)
        state = s.dump_state()
        s.close()
        # the members, static and subset, are derived from the watermark
        # records on replay and never logged
        with open(os.path.join(path, LOG), encoding="utf-8") as fh:
            heads = [read_node(line)[0] for line in fh]
        assert "member" not in heads
        assert heads.count("watermark") == 2 * len(s.classes)
        with Store(path) as again:
            assert again.dump_state() == state


class TestInMemory:
    def test_renders_no_log_records(self, monkeypatch):
        def refuse(x):
            raise AssertionError(f"rendered {x!r}")
        monkeypatch.setattr(store_module, "render_sexp", refuse)
        monkeypatch.setattr(store_module, "quote_string", refuse)
        s = build_worked_store()
        s.add_is_a("check", "payment")
        find_members(s)
        assert len(s.kb_class("fi_related").members) == 1

    def test_positional_taxonomy_edit_rejected(self):
        s = Store()
        with pytest.raises(StoreError, match="named concepts"):
            s.same_as(positional(0), "a")
        with pytest.raises(StoreError, match="named concepts"):
            s.add_is_a("a", positional(1))
        assert not s.tax.equiv(positional(0), mk_concept("a"))

    def test_term_names_is_a_live_view(self):
        s = Store()
        names = s.term_names()
        assert "joe" not in names
        load_corpus(s, promoted=("joe",))
        assert "joe" in names and "sue" in names and "ghost" not in names


class TestStats:
    def test_fresh_store_is_zero(self):
        assert Store().stats() == {"untyped": 0, "typed": 0, "classes": 0}

    def test_counts(self):
        s = Store()
        load_corpus(s, promoted=("joe",))
        s.mk_kb_class("person", person_ty(s))
        st = s.stats()
        assert st["untyped"] == 4 and st["typed"] == 1
        assert st["members.person"] == 0
