import io

import pytest

from flutes import terms as T
from flutes.cli import Session, _member_handle, main, run_session
from flutes.errors import FlutesError, RuleFailure
from flutes.classifier import find_members
from flutes.rules import member_name
from flutes.sexp import render_sexp
from flutes.store import Store
from flutes.taxonomy import Taxonomy

from termgen import WORKED_CORPUS, build_worked_store, related_prop


def types_for_script():
    s = build_worked_store(path=None)
    return {name: render_sexp(cls.definition)
            for name, cls in s.classes.items()}


def class_commands():
    tys = types_for_script()
    return [f"defclass {name} {tys[name]}"
            for name in ["person", "trans", "orig_of", "recv_of",
                         "fi_related"]]


def write_script(tmp_path, lines, name="session.fls"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def run_script(tmp_path, capsys, lines, store="kb", timings=False):
    script = write_script(tmp_path, lines)
    argv = ["--store", str(tmp_path / store), "--script", script]
    if not timings:
        argv.append("--no-timings")
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "people.flt"
    path.write_text(WORKED_CORPUS, encoding="utf-8")
    return str(path)


class TestWorkedScript:
    def script(self, corpus_file):
        return (["same_as dob birth_date", f"load {corpus_file}"]
                + class_commands()
                + ["find-members", "members fi_related", "stats", "quit"])

    def test_end_to_end(self, tmp_path, capsys, corpus_file):
        code, out = run_script(tmp_path, capsys, self.script(corpus_file))
        assert code == 0
        pair = render_sexp(T.triple("fi-related", T.term_name("joe"),
                                    T.term_name("sue")))
        member_lines = [l for l in out.splitlines()
                        if l.startswith("member\tfi_related#")]
        assert len(member_lines) == 1
        assert member_lines[0].endswith(pair)
        assert "count\t1" in out.splitlines()
        assert "members.person\t2" in out.splitlines()
        assert "inserted\t5" in out.splitlines()

    def test_script_is_deterministic(self, tmp_path, capsys, corpus_file):
        lines = self.script(corpus_file)
        code_a, out_a = run_script(tmp_path, capsys, lines, store="kb_a")
        code_b, out_b = run_script(tmp_path, capsys, lines, store="kb_b")
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_timings_add_elapsed_lines(self, tmp_path, capsys, corpus_file):
        code, out = run_script(tmp_path, capsys, self.script(corpus_file),
                               timings=True)
        assert code == 0
        assert any(l.startswith("elapsed\t") for l in out.splitlines())


class TestCommands:
    def test_stats_on_fresh_store(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys, ["stats"])
        assert code == 0
        assert out.splitlines() == ["untyped\t0", "typed\t0", "classes\t0"]

    def test_insert_inline(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys, [
            'insert a := {"name"="A"}; b := wraps(a);',
            "stats"])
        assert code == 0
        assert "inserted\t2" in out.splitlines()
        assert "untyped\t2" in out.splitlines()

    def test_failed_insert_stores_none_of_its_declarations(self, tmp_path):
        path = str(tmp_path / "kb")
        with Store(path) as store:
            session = Session(store, io.StringIO(), timings=False)
            session.run_line("insert b := 2;")
            with pytest.raises(FlutesError, match="'b' already bound"):
                session.run_line("insert a := 1; b := 3;")
            assert store.lookup("a") is None
            session.run_line("insert c := 4;")
        with Store(path) as store:
            assert sorted(store.term_names()) == ["b", "c"]
            assert store.lookup("b") == T.num_f(2)

    def test_stored_names_parse_as_aliases(self):
        session = Session(Store(), io.StringIO())
        session.run_line('insert ky := {"name"="Kentucky"};')
        session.run_line('insert sue := {"home" = ky, "state" = Ohio};')
        fields = {c.name: v for c, v in session.store.lookup("sue").fields}
        assert fields["home"] == T.term_name("ky")
        assert fields["state"] == T.atom("Ohio")

    def test_same_as_enables_classification(self, tmp_path, capsys,
                                            corpus_file):
        base = [f"load {corpus_file}"] + class_commands() + ["find-members",
                                                             "stats"]
        code, out = run_script(tmp_path, capsys, base, store="kb_plain")
        assert code == 0
        # joe's birth_date cannot pair with the person class's dob label
        assert "members.person\t1" in out.splitlines()
        code, out = run_script(tmp_path, capsys,
                               ["same_as dob birth_date"] + base,
                               store="kb_syn")
        assert code == 0
        assert "members.person\t2" in out.splitlines()

    def test_is_a_reported(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys, ["is_a check payment"])
        assert code == 0
        assert out.splitlines() == ["is_a\tcheck\tpayment"]

    def test_members_of_unknown_class_fails(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys, ["members nope"])
        assert code == 1
        assert out.startswith("error\t")

    def test_defclass_rejects_term_sexp(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys, ["defclass c (num 1)"])
        assert code == 1
        assert out.startswith("error\t") and "expected a type" in out
        with Store(str(tmp_path / "kb")) as store:
            assert "c" not in store.classes

    def test_defclass_rejects_unsupported_proposition(self, tmp_path, capsys):
        bad = T.SubsetTy(T.num_f(1), T.num_ty,
                         T.Not(T.exists("t", T.type_name("q"), T.TRUE)))
        code, out = run_script(
            tmp_path, capsys, [f"defclass bad {render_sexp(bad)}"])
        assert code == 1
        assert "error\t" in out

    def test_unknown_command_fails_script_with_help(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys, ["frobnicate", "stats"])
        assert code == 1
        assert "Commands, one per line" in out
        assert "untyped\t0" not in out  # execution stopped

    def test_script_stops_at_first_error(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys,
                               ["insert x := ;", "stats"])
        assert code == 1
        assert "untyped" not in out

    def test_comments_and_blank_lines_skipped(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys,
                               ["# a comment", "", "stats"])
        assert code == 0
        assert out.splitlines()[0] == "untyped\t0"


class TestInteractive:
    def test_errors_do_not_end_the_session(self, tmp_path):
        store = Store(str(tmp_path / "kb"))
        out = io.StringIO()
        code = run_session(store, ["members nope", "stats"], out,
                           timings=False, stop_on_error=False)
        store.close()
        assert code == 0
        text = out.getvalue()
        assert text.startswith("error\t")
        assert "untyped\t0" in text

    def test_quit_ends_the_session(self, tmp_path):
        store = Store(str(tmp_path / "kb"))
        out = io.StringIO()
        code = run_session(store, ["quit", "stats"], out,
                           timings=False, stop_on_error=False)
        store.close()
        assert code == 0
        assert "untyped" not in out.getvalue()

    def test_unknown_command_prints_help_and_continues(self, tmp_path):
        store = Store(str(tmp_path / "kb"))
        out = io.StringIO()
        code = run_session(store, ["zap", "stats"], out,
                           timings=False, stop_on_error=False)
        store.close()
        assert code == 0
        assert "Commands, one per line" in out.getvalue()
        assert "untyped\t0" in out.getvalue()


class TestAnalytics:
    def script(self, corpus_file):
        tys = types_for_script()
        return (["same_as dob birth_date", f"load {corpus_file}"]
                + class_commands()
                + ["find-members",
                   f"defclass vip {tys['person']}",
                   "def-analytic linked person vip nearest 2 trans",
                   "run-analytic linked",
                   "members vip"])

    def test_nearest_filter_analytic(self, tmp_path, capsys, corpus_file):
        code, out = run_script(tmp_path, capsys, self.script(corpus_file))
        assert code == 0
        lines = out.splitlines()
        assert "processed\t2" in lines
        assert "inserted\t2" in lines
        assert "count\t2" in lines

    def test_nearest_radius_zero_filters_everything(self, tmp_path, capsys,
                                                    corpus_file):
        tys = types_for_script()
        script = (["same_as dob birth_date", f"load {corpus_file}"]
                  + class_commands()
                  + ["find-members",
                     f"defclass vip {tys['person']}",
                     "def-analytic strict person vip nearest 0 trans",
                     "run-analytic strict",
                     "members vip"])
        code, out = run_script(tmp_path, capsys, script)
        assert code == 0
        lines = out.splitlines()
        assert "failures\t2" in lines
        assert "count\t0" in lines

    def test_member_handle_names_members_only(self):
        store = build_worked_store()
        find_members(store)
        for mname, term in store.kb_class("person").members:
            assert _member_handle(store, "person", term) == mname
        stranger = T.record(store.tax, [("dob", T.string("2000-01-01")),
                                        ("name", T.string("Nobody"))])
        with pytest.raises(RuleFailure, match="not a stored member"):
            _member_handle(store, "person", stranger)

    def test_run_unknown_analytic_fails(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys, ["run-analytic ghost"])
        assert code == 1
        assert "unknown analytic" in out


class TestLambdaRules:
    NAMES = "defclass names (recordty ((name (strty))))"
    RULE = ("def-rule names person names p "
            "(record ((name (select (var p) name))))")

    def base(self, corpus_file):
        return (["same_as dob birth_date", f"load {corpus_file}"]
                + class_commands() + ["find-members", self.NAMES])

    def test_rule_projects_members_and_they_persist(self, tmp_path, capsys,
                                                    corpus_file):
        rendered = sorted(
            render_sexp(T.record(Taxonomy(), [("name", T.string(n))]))
            for n in ("Joe", "Sue"))
        code, out = run_script(tmp_path, capsys, self.base(corpus_file) + [
            self.RULE, "run-analytic names", "members names"])
        assert code == 0
        lines = out.splitlines()
        assert lines[lines.index("rule\tnames"):] == [
            "rule\tnames", "analytic\tnames", "processed\t2", "inserted\t2",
            "failures\t0", *[f"member\t{member_name('names', r)}"
                             f"\t{r}" for r in rendered], "count\t2"]
        # the rule is not stored; its members are, and a rerun adds none
        code, again = run_script(tmp_path, capsys, [
            "members names", self.RULE, "run-analytic names"])
        assert code == 0
        assert again.splitlines() == lines[-3:] + [
            "rule\tnames", "analytic\tnames", "processed\t2", "inserted\t0",
            "failures\t0"]

    def test_body_variable_other_than_the_parameter(self, tmp_path, capsys,
                                                    corpus_file):
        code, out = run_script(tmp_path, capsys, self.base(corpus_file) + [
            "def-rule bad person names p (select (var q) name)"])
        assert code == 1
        assert out.splitlines()[-1] == (
            "error\trule 'bad' body has unbound variables ['q']")

    def test_name_taken_by_an_analytic_refused(self, tmp_path, capsys,
                                               corpus_file):
        code, out = run_script(tmp_path, capsys, self.base(corpus_file) + [
            "def-analytic names person names nearest 2 trans", self.RULE])
        assert code == 1
        assert out.splitlines()[-1] == (
            "error\tanalytic 'names' already registered")

    def test_missing_body_is_a_usage_error(self, tmp_path, capsys):
        code, out = run_script(tmp_path, capsys,
                               ["def-rule names person names p"])
        assert code == 1
        assert out.splitlines()[-1] == ("error\tusage: def-rule <name> <in> "
                                        "<out> <param> <term s-expression>")


class TestStoreHandling:
    def test_lock_excludes_second_session(self, tmp_path, capsys):
        holder = Store(str(tmp_path / "kb"))
        try:
            code = main(["--store", str(tmp_path / "kb"),
                         "--script", write_script(tmp_path, ["stats"])])
        finally:
            holder.close()
        out = capsys.readouterr().out
        assert code == 1
        assert "locked" in out

    def test_corrupt_store_exits_2(self, tmp_path, capsys):
        path = tmp_path / "kb"
        s = Store(str(path))
        s.abox_insert("a", T.num_f(1))
        s.commit()
        s.abox_insert("b", T.num_f(2))
        s.close()
        log = path / "log.fsx"
        lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
        # garbage inside the first batch, before the second batch's marker
        log.write_text("".join(lines[:1] + ["(garbage\n"] + lines[1:]),
                       encoding="utf-8")
        code = main(["--store", str(path),
                     "--script", write_script(tmp_path, ["stats"])])
        out = capsys.readouterr().out
        assert code == 2
        assert "log.fsx:2" in out

    def test_state_persists_between_sessions(self, tmp_path, capsys,
                                             corpus_file):
        lines = (["same_as dob birth_date", f"load {corpus_file}"]
                 + class_commands() + ["find-members"])
        code, _ = run_script(tmp_path, capsys, lines)
        assert code == 0
        code, out = run_script(tmp_path, capsys, ["stats"])
        assert code == 0
        assert "members.fi_related\t1" in out.splitlines()
