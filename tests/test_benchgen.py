import io
import re

import pytest

from flutes.benchgen import (GenConfig, define_schema, generate,
                             generate_increment, insert_text, main,
                             run_experiment)
from flutes.store import Store
from flutes.syntax import parse_program


def report_value(text, key):
    for line in text.splitlines():
        k, _, v = line.partition("\t")
        if k == key:
            return v
    raise KeyError(key)


class TestConfig:
    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            GenConfig(persons=-1)
        with pytest.raises(ValueError):
            GenConfig(transactions=-2)
        with pytest.raises(ValueError):
            GenConfig(extra_attrs=-1)

    def test_rejects_out_of_range_probabilities(self):
        with pytest.raises(ValueError):
            GenConfig(p_drop_orig=1.5)
        with pytest.raises(ValueError):
            GenConfig(p_drop_recv=-0.1)

    def test_rejects_non_integer_counts(self):
        with pytest.raises(ValueError):
            GenConfig(persons=2.5)

    def test_boundary_probabilities_accepted(self):
        GenConfig(p_drop_orig=0.0, p_drop_recv=1.0)


class TestGenerate:
    def test_same_seed_same_corpus(self):
        cfg = GenConfig(persons=12, transactions=9, p_drop_orig=0.3,
                        p_drop_recv=0.3, extra_attrs=3, seed=42)
        assert generate(cfg) == generate(cfg)

    def test_different_seeds_differ(self):
        a = GenConfig(persons=12, transactions=9, seed=1)
        b = GenConfig(persons=12, transactions=9, seed=2)
        assert generate(a) != generate(b)

    def test_minimal_corpus_shape(self):
        # two persons, one fully-linked transaction
        text = generate(GenConfig(persons=2, transactions=1, seed=1))
        decls = parse_program(text)
        assert [d.name for d in decls] == ["p0", "p1", "tx0", "og0", "rc0"]
        person = decls[0].body
        labels = sorted(c.name for c, _ in person.fields)
        assert labels == ["dob", "name"]
        txn = decls[2].body
        assert sorted(c.name for c, _ in txn.fields) == ["amount", "type"]

    def test_drop_orig_one_removes_all_originators(self):
        cfg = GenConfig(persons=6, transactions=10, p_drop_orig=1.0, seed=5)
        text = generate(cfg)
        assert "orig-of" not in text
        assert text.count("recv-of") == 10

    def test_drop_recv_one_removes_all_recipients(self):
        cfg = GenConfig(persons=6, transactions=10, p_drop_recv=1.0, seed=5)
        text = generate(cfg)
        assert "recv-of" not in text
        assert text.count("orig-of") == 10

    def test_drops_do_not_shift_the_random_stream(self):
        # the droppy corpus is the full corpus minus some link lines
        full = generate(GenConfig(persons=10, transactions=8, seed=9))
        droppy = generate(GenConfig(persons=10, transactions=8,
                                    p_drop_orig=0.5, p_drop_recv=0.5, seed=9))
        assert set(droppy.splitlines()) <= set(full.splitlines())

    def test_extra_attrs_widen_person_records(self):
        text = generate(GenConfig(persons=1, transactions=0, extra_attrs=4,
                                  seed=3))
        decl = parse_program(text)[0]
        labels = {c.name for c, _ in decl.body.fields}
        assert labels == {"name", "dob", "x0", "x1", "x2", "x3"}

    def test_increment_shape(self):
        cfg = GenConfig(persons=5, transactions=3, seed=11)
        text = generate_increment(cfg)
        decls = parse_program(text, known={"p%d" % i for i in range(5)})
        assert len(decls) == 20
        names = [d.name for d in decls]
        assert names[:4] == ["wp0", "wtx0", "wog0", "wrc0"]
        assert generate_increment(cfg) == text

    def test_increment_needs_existing_persons(self):
        with pytest.raises(ValueError):
            generate_increment(GenConfig(persons=0, transactions=1))


class TestExperiment:
    def run(self, cfg, **kw):
        buf = io.StringIO()
        code = run_experiment(cfg, out=buf, **kw)
        return code, buf.getvalue()

    def test_small_experiment_agrees_with_oracle(self):
        code, out = self.run(GenConfig(persons=10, transactions=8,
                                       p_drop_orig=0.2, p_drop_recv=0.2,
                                       seed=4))
        assert code == 0
        assert report_value(out, "agree") == "true"
        for phase in ("initial", "increment"):
            for cls in ("person", "trans", "orig_of", "recv_of",
                        "fi_related", "m_target"):
                assert report_value(out, f"{phase}.{cls}.agree") == "true"

    def test_zero_transactions_leave_mission_classes_empty(self):
        code, out = self.run(GenConfig(persons=4, transactions=0, seed=2))
        assert code == 0
        assert report_value(out, "initial.fi_related.members") == "0"
        assert report_value(out, "initial.m_target.members") == "0"

    def test_increment_grows_the_corpus(self):
        code, out = self.run(GenConfig(persons=6, transactions=5, seed=8))
        assert code == 0
        before = int(report_value(out, "initial.person.members"))
        after = int(report_value(out, "increment.person.members"))
        assert after == before + 5
        # fully-linked increment txns always extend the relation
        fi_before = int(report_value(out, "initial.fi_related.members"))
        fi_after = int(report_value(out, "increment.fi_related.members"))
        assert fi_after > fi_before

    def test_requires_a_target_person(self):
        with pytest.raises(ValueError):
            self.run(GenConfig(persons=0, transactions=0))

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_pruning_beats_pairwise_scan(self, seed):
        # at least one transaction keeps both endpoints at these sizes
        cfg = GenConfig(persons=25, transactions=20, p_drop_orig=0.3,
                        p_drop_recv=0.3, seed=seed)
        text = generate(cfg)
        linked = any(f"og{i} " in text and f"rc{i} " in text
                     for i in range(cfg.transactions))
        assert linked
        code, out = self.run(cfg)
        assert code == 0
        n = int(report_value(out, "initial.orig_of.members"))
        m = int(report_value(out, "initial.recv_of.members"))
        candidates = int(report_value(out, "initial.fi_related.candidates"))
        assert candidates < n * m

    def test_report_carries_config_and_timings(self):
        code, out = self.run(GenConfig(persons=3, transactions=2, seed=6))
        assert code == 0
        assert report_value(out, "config.persons") == "3"
        assert report_value(out, "config.seed") == "6"
        assert float(report_value(out, "initial.elapsed")) >= 0.0
        assert re.search(r"^initial\.trans\.elapsed\t", out, re.M)

    def test_report_times_each_insert_phase(self):
        code, out = self.run(GenConfig(persons=3, transactions=2, seed=6))
        assert code == 0
        lines = [line.split("\t")[0] for line in out.splitlines()]
        for phase in ("initial", "increment"):
            at = lines.index(f"{phase}.parse_s")
            # right after the phase's insert count, parse before insert
            assert lines[at - 1:at + 2] == ["inserted", f"{phase}.parse_s",
                                            f"{phase}.insert_s"]
            assert float(report_value(out, f"{phase}.parse_s")) > 0.0
            assert float(report_value(out, f"{phase}.insert_s")) > 0.0


class TestSchema:
    def test_insert_text_reports_declaration_count(self):
        store = Store()
        n = insert_text(store, generate(GenConfig(persons=3, transactions=0,
                                                  seed=1)))
        assert n == 3
        assert len(store.untyped) == 3

    def test_define_schema_registers_the_class_family(self):
        store = Store()
        insert_text(store, generate(GenConfig(persons=2, transactions=1,
                                              seed=1)))
        define_schema(store, "p0")
        assert set(store.classes) == {"person", "trans", "orig_of",
                                      "recv_of", "fi_related", "m_target"}


class TestMain:
    def test_writes_report_file(self, tmp_path):
        out = tmp_path / "report.tsv"
        code = main(["--persons", "6", "--txns", "5", "--drop-orig", "0.2",
                     "--drop-recv", "0.2", "--extra", "1", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert report_value(text, "config.extra_attrs") == "1"
        assert report_value(text, "agree") == "true"

    def test_rejects_bad_probability(self, capsys):
        code = main(["--persons", "2", "--txns", "1", "--drop-orig", "2.0"])
        assert code == 1
        assert "within [0, 1]" in capsys.readouterr().err
