"""Self-test of the benchmark at tiny size (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload in ``BENCHMARK.json``:

* an untraced run prints every end-to-end metric, and a traced run every
  per-layer metric, each with its declared unit, and answers correctly;
* on the simulated planes, every count and simulated-time metric repeats
  exactly for the same seed;
* a different seed generates different inputs.

Exits non-zero on the first failure.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: metrics that must repeat exactly for one seed on the simulated planes
#: (message counts, simulated time, count-window ratios).
EXACT_PREFIXES = (
    "network.msgs.", "msgs_per_", "sim_latency_ms_", "standing_lag_ms_",
    "engine.events_per_query", "node.query_msgs_per_member",
    "frontend.subqueries_per_query", "frontend.shared_frac",
    "adapt.", "standing.deltas", "standing.updates", "standing.replans",
    "setup.convergence_waves", "setup.formation_msgs_per_node",
    "tree_state.", "network.fused_frac", "network.batched_frac",
)
SIMULATED = ("dashboard", "churn_mix")


def run(workload: str, seed: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if out.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {out.returncode}:\n"
                         f"{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_report(workload: str, report: dict, declared: list[dict]) -> None:
    if set(report) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{workload}: wrong result keys {sorted(report)}")
    if not report["correct"] or report["attempted"] < 1:
        raise SystemExit(f"{workload}: incorrect or empty run {report}")
    metrics = report["metrics"]
    want = {entry["name"]: entry["unit"] for entry in declared}
    got = {name: value["unit"] for name, value in metrics.items()}
    if got != want:
        raise SystemExit(f"{workload}: metrics/units differ from BENCHMARK.json:"
                         f" {sorted(set(got) ^ set(want))}")


def traffic_prefix(workload: str, seed: int, units: int = 3) -> list:
    """The first traffic units the seed generates on the tiny deployment."""
    module = importlib.import_module(workload)
    size = module.SIZES["tiny"]
    texts = [f"SELECT COUNT(*) WHERE S{g} = true" for g in range(12)]
    if workload == "churn_mix":
        draws = module.traffic(seed, size, list(range(size["nodes"])), texts)
    elif workload == "dashboard":
        draws = module.traffic(seed, size, texts)
    else:
        draws = importlib.import_module("pollers").traffic(seed, 0, texts)
    return [next(draws) for _ in range(units)]


def main() -> int:
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        spec = json.load(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, 1, 0)
        check_report(workload, plain, spec["end_to_end"])
        if workload in SIMULATED:
            again = run(workload, 1, 0)["metrics"]["msgs_per_query"]["value"]
            if again != plain["metrics"]["msgs_per_query"]["value"]:
                raise SystemExit(f"{workload}: msgs_per_query is not repeatable")
        first = run(workload, 1, 1)
        check_report(workload, first, spec["per_layer"])
        if workload in SIMULATED:
            again = run(workload, 1, 1)["metrics"]
            for name, value in first["metrics"].items():
                if name.startswith(EXACT_PREFIXES) and (
                    value["value"] != again[name]["value"]
                ):
                    raise SystemExit(f"{workload}: {name} is not repeatable: "
                                     f"{value['value']} vs {again[name]['value']}")
        if traffic_prefix(workload, 1) == traffic_prefix(workload, 2):
            raise SystemExit(f"{workload}: seeds 1 and 2 gave the same inputs")
        print(f"{workload}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
