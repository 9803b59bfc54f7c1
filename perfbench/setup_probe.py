"""One set-up time for setup_s, taken in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <scratch dir> <flutes src dir>

Times `import flutes`, opening a store (file-backed under the scratch dir
for a disk workload, in memory otherwise) and the session commands that
make the workload's session ready, against the reference loop, and prints
{"setup_s": normalised seconds}.
"""

import io
import json
import os
import statistics
import sys
import tempfile
from time import perf_counter

import gen
import timing


def main(workload, scratch, src):
    disk = gen.SPECS[workload]["disk"]
    path = tempfile.mkdtemp(dir=scratch) if disk else None
    sys.path.insert(0, src)
    for _ in range(5):
        timing.reference()
    before = [timing.reference() for _ in range(3)]
    t0 = perf_counter()
    from flutes import Store
    from flutes.cli import Session
    store = Store(os.path.join(path, "kb")) if disk else Store()
    session = Session(store, io.StringIO(), timings=False)
    for line in gen.setup_lines():
        session.run_line(line)
    t1 = perf_counter()
    loops = before + [timing.reference() for _ in range(3)]
    store.close()
    scale = timing.REF_NOMINAL_S / statistics.median(loops)
    print(json.dumps({"setup_s": (t1 - t0) * scale}))


if __name__ == "__main__":
    main(*sys.argv[1:])
