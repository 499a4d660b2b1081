"""The repo benchmark: one command, three workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload dashboard --seed 1 --seconds 6 --trace 0

``--trace 0`` reports every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` reports every per-layer metric instead, from one untraced
and one traced half-run (their throughput ratio is the tracing overhead),
and writes the spans under ``perfbench/traces/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  A wrong answer
makes ``correct`` false and the exit code 1.  See ``LAYERS.md`` for the
workloads, the layers each one stresses, and which end-to-end metric
each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        return json.load(spec)


def _report(metrics: dict[str, float], declared: list[dict]) -> dict:
    """Metric values keyed as declared, with units; unknown names fail.

    A declared metric the run did not produce is 0: that workload
    bypasses the layer (e.g. ``serve.*`` on the simulated planes).
    """
    names = {entry["name"] for entry in declared}
    unknown = sorted(set(metrics) - names)
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    out = {}
    for entry in declared:
        value = float(metrics.get(entry["name"], 0.0))
        if not math.isfinite(value):
            raise ValueError(f"{entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a seconds-long smoke run (the self-test uses it)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no Moara source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    spec = _load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import runner  # needs src/ on the path

    outcome = runner.run(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size,
        trace_dir=os.path.join(HERE, "traces"),
    )
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": outcome.wrong == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": _report(outcome.metrics, declared),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
