"""The benchmark's hooks still find what they wrap.

perfbench/tracing.py wraps functions of every layer by name and only
reports a missing one on standard error, where its per-layer metric reads
0; these tests make such a rename fail here instead.  The tracer is loaded
from its file as it stands.
"""

import os
import runpy

from flutes.store import KbClass, Store

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "perfbench", "tracing.py")


def test_every_hook_is_found():
    commit = Store.commit
    tracer = runpy.run_path(TRACING)["Tracer"]()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert Store.commit is commit


def test_member_structures_perfbench_reads():
    assert {"members", "by_name"} <= set(KbClass.__slots__)
