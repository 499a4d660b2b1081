"""``churn_mix``: writes beside reads, with standing queries resident.

A simulated plane under ``LANLatencyModel`` (the only workload with
non-zero simulated latency) with 16 groups of 50 and a numeric ``load``
attribute.  Each round writes -- ``load`` updates plus group-membership
flips, then quiesce -- and then reads a batch of *distinct* single/AND/OR
queries, so front-end sharing is bypassed and every query walks its own
trees.  Eight OR-cover standing subscriptions stay installed throughout:
each write drives adaptive-maintenance STATUS_UPDATEs and standing
SUB_DELTA pushes.
"""

from __future__ import annotations

import random
import time

from repro.baselines.centralized import centralized_answer
from repro.campaigns.oracle import values_equal
from repro.core import MoaraCluster
from repro.sim.latency import LANLatencyModel

import harness
from dashboard import DEPLOYMENT_SEED

SIZES = {
    "full": {"nodes": 2048, "groups": 16, "group_size": 50, "load_writes": 10,
             "flips": 4, "reads": 16, "subscriptions": 8, "window_rounds": 24},
    "tiny": {"nodes": 192, "groups": 8, "group_size": 12, "load_writes": 4,
             "flips": 2, "reads": 6, "subscriptions": 3, "window_rounds": 4},
}


def query_pool(groups: int) -> list[str]:
    """Distinct single/AND/OR reads over the groups (read in seeded shuffles,
    see :func:`traffic`)."""
    pool = []
    for a in range(groups):
        b, c = (a + 3) % groups, (a + 5) % groups
        pool.append(f"SELECT SUM(load) WHERE S{a} = true")
        pool.append(f"SELECT COUNT(*) WHERE S{a} = true AND S{b} = true")
        pool.append(f"SELECT MAX(load) WHERE S{a} = true OR S{c} = true")
    return pool


def traffic(seed: int, size: dict, ids: list[int], pool: list[str]):
    """Rounds drawn by the benchmark seed: ``load`` writes, membership
    flips and a read batch.  Reads walk a fresh seeded shuffle of the
    pool batch by batch, so every query is read equally often."""
    rng = random.Random(seed)
    reads: list[str] = []
    while True:
        loads = [(rng.choice(ids), float(rng.randrange(100)))
                 for _ in range(size["load_writes"])]
        flips = [(rng.randrange(size["groups"]), rng.choice(ids))
                 for _ in range(size["flips"])]
        if len(reads) < size["reads"]:
            reads = rng.sample(pool, len(pool))
        batch, reads = reads[: size["reads"]], reads[size["reads"]:]
        yield loads, flips, batch


def _stamper(updated_at: dict, engine, index: int):
    """An update callback noting the simulated time of subscription
    ``index``'s latest fold."""
    def on_update(result) -> None:
        updated_at[index] = engine.now

    return on_update


class System:
    def __init__(self, cluster: MoaraCluster, members: dict[int, set[int]],
                 handles: list, updated_at: dict) -> None:
        self.cluster = cluster
        self.members = members
        self.handles = handles
        #: subscription index -> simulated time of its latest fold
        self.updated_at = updated_at
        self.stamps = harness.completion_stamps(cluster)


def build(size: dict) -> harness.Setup:
    phases = harness.Phases()
    rng = random.Random(DEPLOYMENT_SEED)
    nodes, groups = size["nodes"], size["groups"]
    cluster = MoaraCluster(
        nodes,
        seed=DEPLOYMENT_SEED,
        latency_model=LANLatencyModel(seed=DEPLOYMENT_SEED),
    )
    ids = cluster.node_ids
    members: dict[int, set[int]] = {}
    for g in range(groups):
        members[g] = set(rng.sample(ids, size["group_size"]))
        cluster.set_group(f"S{g}", members[g])
    for node_id in ids:
        cluster.set_attribute(node_id, "load", float(rng.randrange(100)))
    cluster.run_until_idle()
    phases.end("construct")
    for g in range(groups):
        cluster.query(f"SELECT COUNT(*) WHERE S{g} = true")
    phases.values["formation_msgs_per_node"] = cluster.stats.total_messages / nodes
    phases.end("formation")
    pool = query_pool(groups)
    warm = random.Random(DEPLOYMENT_SEED)
    phases.values["convergence_waves"] = harness.converge(
        cluster.stats,
        lambda: cluster.query_concurrent(warm.sample(pool, size["reads"])),
        groups,
    )
    phases.end("convergence")
    updated_at: dict[int, float] = {}
    handles = []
    for index in range(size["subscriptions"]):
        a, b = rng.sample(range(groups), 2)
        handles.append(cluster.frontend.subscribe(
            f"SELECT SUM(load) WHERE S{a} = true OR S{b} = true",
            on_update=_stamper(updated_at, cluster.engine, index),
        ))
    cluster.run_until_idle()
    phases.end("subscribe")
    phases.values["states_per_node"] = (
        sum(len(node.states) for node in cluster.nodes.values()) / nodes
    )
    return harness.Setup(
        System(cluster, members, handles, updated_at), phases, nodes
    )


def teardown(system: System) -> None:
    del system.cluster, system.handles


def measure(system: System, seed: int, size: dict, seconds: float,
            tracer=None) -> harness.Measured:
    cluster = system.cluster
    engine = cluster.engine
    members = system.members
    stamps = system.stamps
    group_of = harness.group_keys(size["groups"])
    rounds = traffic(seed, size, cluster.node_ids, query_pool(size["groups"]))

    def round_() -> harness.Unit:
        loads, flips, batch = next(rounds)
        system.updated_at.clear()
        events = engine.events_processed
        start = time.perf_counter()
        written_at = engine.now
        for node_id, value in loads:
            cluster.set_attribute(node_id, "load", value)
        for g, node_id in flips:
            member = node_id in members[g]
            cluster.set_attribute(node_id, f"S{g}", not member)
            (members[g].discard if member else members[g].add)(node_id)
        cluster.run_until_idle()
        lags = [(at - written_at) * 1000.0 for at in system.updated_at.values()]
        del stamps[:]
        read_start = time.perf_counter()
        results = cluster.query_concurrent(batch)
        end = time.perf_counter()
        return harness.Unit(
            queries=batch,
            results=results,
            elapsed_s=end - start,
            latencies_ms=[(t - read_start) * 1000.0 for t in stamps],
            events=engine.events_processed - events,
            writes=len(loads) + len(flips),
            standing_lags_ms=lags,
        )

    group_attrs = [f"S{g}" for g in range(size["groups"])]

    def check(unit: harness.Unit) -> tuple[int, int]:
        # The plane is quiescent after the read: every answer and every
        # standing fold must equal the centralized recompute now.  Every
        # predicate here is built from positive ``S<g> = true`` literals,
        # so a node in no group satisfies none of them: the oracle folds
        # over the nodes in some group, read from their attribute stores.
        stores = [
            (nid, node.attributes)
            for nid, node in cluster.nodes.items()
            if True in map(node.attributes.data.get, group_attrs)
        ]
        failed = wrong = 0
        for text, result in zip(unit.queries, unit.results):
            if result.failed:
                failed += 1
            elif not values_equal(result.value, centralized_answer(text, stores)):
                wrong += 1
        for handle in system.handles:
            if not values_equal(
                handle.current_value(), centralized_answer(handle.query, stores)
            ):
                wrong += 1
        return failed, wrong

    return harness.measure_units(
        cluster, round_, check, seconds, size["window_rounds"],
        lambda key: len(members[group_of[key]]), tracer,
    )
