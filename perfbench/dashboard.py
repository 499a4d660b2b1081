"""``dashboard``: identical concurrent dashboard panels, no writes.

A simulated plane under ``ZeroLatencyModel`` (the paper's bandwidth
method) with 16 groups of a fixed 50 members, so per-member cost compares
across overlay sizes.  Seeded single/AND/OR ``COUNT`` templates are drawn
into closed-loop waves of concurrent ``query_concurrent`` calls: the
front-end's sharing, plan and size caches collapse each wave to a few
sub-queries, so this is the workload where ``core.frontend`` carries the
largest share of wall time.
"""

from __future__ import annotations

import random
import time

from repro.baselines.centralized import centralized_answer
from repro.campaigns.oracle import values_equal
from repro.core import MoaraCluster

import harness

SIZES = {
    "full": {"nodes": 4096, "groups": 16, "group_size": 50, "templates": 24,
             "wave": 500, "window_waves": 10},
    "tiny": {"nodes": 256, "groups": 8, "group_size": 12, "templates": 12,
             "wave": 60, "window_waves": 3},
}
#: the deployment -- overlay ids, group members, panel templates -- is
#: fixed; the benchmark seed drives the traffic (which panels each wave
#: polls).  Comparing commits needs the same testbed: seed-to-seed
#: differences in group placement would move message counts by more than
#: a real regression.
DEPLOYMENT_SEED = 2008


def templates(rng: random.Random, groups: int, count: int) -> list[str]:
    """``count`` distinct single/AND/OR COUNT panels over the groups."""
    texts: list[str] = []
    while len(texts) < count:
        a, b = rng.sample(range(groups), 2)
        kind = len(texts) % 3
        if kind == 0:
            text = f"SELECT COUNT(*) WHERE S{a} = true"
        elif kind == 1:
            text = f"SELECT COUNT(*) WHERE S{a} = true AND S{b} = true"
        else:
            text = f"SELECT COUNT(*) WHERE S{a} = true OR S{b} = true"
        if text not in texts:
            texts.append(text)
    return texts


class System:
    def __init__(self, cluster: MoaraCluster, texts: list[str]) -> None:
        self.cluster = cluster
        self.texts = texts
        self.stamps = harness.completion_stamps(cluster)


def traffic(seed: int, size: dict, texts: list[str]):
    """The waves of panels polled, drawn by the benchmark seed."""
    rng = random.Random(seed)
    while True:
        yield [rng.choice(texts) for _ in range(size["wave"])]


def build(size: dict) -> harness.Setup:
    phases = harness.Phases()
    rng = random.Random(DEPLOYMENT_SEED)
    nodes = size["nodes"]
    cluster = MoaraCluster(nodes, seed=DEPLOYMENT_SEED)
    ids = cluster.node_ids
    for g in range(size["groups"]):
        cluster.set_group(f"S{g}", rng.sample(ids, size["group_size"]))
    texts = templates(rng, size["groups"], size["templates"])
    phases.end("construct")
    for g in range(size["groups"]):
        cluster.query(f"SELECT COUNT(*) WHERE S{g} = true")
    phases.values["formation_msgs_per_node"] = cluster.stats.total_messages / nodes
    phases.end("formation")
    warm = traffic(DEPLOYMENT_SEED, size, texts)
    phases.values["convergence_waves"] = harness.converge(
        cluster.stats, lambda: cluster.query_concurrent(next(warm)),
        size["groups"],
    )
    phases.end("convergence")
    phases.values["states_per_node"] = (
        sum(len(node.states) for node in cluster.nodes.values()) / nodes
    )
    return harness.Setup(System(cluster, texts), phases, nodes)


def teardown(system: System) -> None:
    del system.cluster


def measure(system: System, seed: int, size: dict, seconds: float,
            tracer=None) -> harness.Measured:
    cluster = system.cluster
    stamps = system.stamps
    # No writes: each panel's true answer is fixed once the plane is
    # quiescent, so the oracle runs once per template.
    stores = [(nid, node.attributes) for nid, node in cluster.nodes.items()]
    truth = {text: centralized_answer(text, stores) for text in system.texts}
    members = harness.group_sizes(cluster, size["groups"])
    waves = traffic(seed, size, system.texts)
    engine = cluster.engine

    def wave() -> harness.Unit:
        batch = next(waves)
        del stamps[:]
        events = engine.events_processed
        start = time.perf_counter()
        results = cluster.query_concurrent(batch)
        elapsed = time.perf_counter() - start
        return harness.Unit(
            queries=batch,
            results=results,
            elapsed_s=elapsed,
            latencies_ms=[(t - start) * 1000.0 for t in stamps],
            events=engine.events_processed - events,
        )

    def check(unit: harness.Unit) -> tuple[int, int]:
        failed = wrong = 0
        for text, result in zip(unit.queries, unit.results):
            if result.failed:
                failed += 1
            elif not values_equal(result.value, truth[text]):
                wrong += 1
        return failed, wrong

    return harness.measure_units(
        cluster, wave, check, seconds, size["window_waves"],
        members.__getitem__, tracer,
    )
