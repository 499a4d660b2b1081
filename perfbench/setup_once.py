"""Build one workload's system in a fresh process and report its phases.

    python3 perfbench/setup_once.py <workload> <full|tiny>

``setup_s`` is defined from an empty process state: no earlier build has
warmed the allocator's arenas or the program's module-level caches.  The
runner therefore times its extra set-ups here, one process each.  The
process builds, tears the system down and writes one JSON object to
stdout: ``seconds`` (phase -> wall seconds) and ``values`` (the set-up's
count metrics).  Interpreter start and imports are outside the timing.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]


def main() -> int:
    workload, size_name = sys.argv[1:3]
    module = importlib.import_module(workload)
    gc.collect()
    setup = module.build(module.SIZES[size_name])
    module.teardown(setup.system)
    json.dump(
        {"seconds": setup.phases.seconds, "values": setup.phases.values},
        sys.stdout,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
