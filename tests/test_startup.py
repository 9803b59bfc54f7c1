"""What starting a session loads.

Every one-shot `flutes` command imports the package and `flutes.cli`, and
nothing is byte-compiled ahead of it, so a module a session never runs is
loaded only when asked for: the corpus generator and the oracle on first
access of their names, `argparse` when the command line is parsed.  No
module of a session uses `dataclasses`, so it loads none of the modules
that `dataclasses` imports to compile its methods either.
"""

import json
import os
import subprocess
import sys

import pytest

from flutes import benchgen, cli

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def _run(code: str):
    """The JSON that `code`, run in a fresh interpreter, prints."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return json.loads(out.stdout)


WATCHED = ("flutes.benchgen", "flutes.oracle", "argparse", "flutes.unify",
           "dataclasses", "inspect", "ast", "dis", "tokenize")


def test_a_session_loads_neither_the_generator_nor_the_oracle():
    loaded = _run("import json, sys\n"
                  "import flutes.cli\n"
                  f"print(json.dumps([m for m in {WATCHED!r} if m in sys.modules]))\n")
    assert loaded == ["flutes.unify"]


def test_lazy_names_resolve_on_first_access():
    names = _run("import json, sys\n"
                 "import flutes\n"
                 "from flutes.benchgen import GenConfig\n"
                 "from flutes.oracle import oracle_extensions\n"
                 "assert flutes.GenConfig is GenConfig\n"
                 "assert flutes.oracle_extensions is oracle_extensions\n"
                 "star = {}\n"
                 "exec('from flutes import *', star)\n"
                 "print(json.dumps(sorted(set(flutes.__all__) - set(star))))\n")
    assert names == []
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        __import__("flutes").nothing


@pytest.mark.parametrize("main", [cli.main, benchgen.main],
                         ids=["cli", "benchgen"])
def test_entry_points_answer_help(main, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")
