"""Shared pieces of the benchmark: clocks, memory, percentiles, set-up
repetition and the per-layer metrics common to the simulated workloads."""

from __future__ import annotations

import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core import messages as mt
from repro.core import parse_predicate

#: the query plane's wire types; every other type is maintenance or
#: standing traffic, charged to writes.
QUERY_PLANE = (
    mt.SIZE_PROBE, mt.SIZE_RESPONSE, mt.FRONTEND_QUERY,
    mt.FRONTEND_RESPONSE, mt.QUERY, mt.QUERY_RESPONSE,
)
#: every wire type, in ``network.msgs.<TYPE>`` metric order.
ALL_TYPES = QUERY_PLANE + (
    mt.STATUS_UPDATE, mt.STATE_SYNC, mt.SUB_INSTALL, mt.SUB_DELTA,
    mt.STANDING_UPDATE, mt.SUB_CANCEL, mt.SUB_RENEW,
)
#: set-ups per run; ``setup_s`` is their median.
SETUPS = 3
SETUP_ONCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "setup_once.py")

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Resident set size of this process."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        return int(statm.read().split()[1]) * _PAGE


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def group_keys(groups: int) -> dict[str, int]:
    """Canonical ``S<g> = true`` predicate -> ``g``: the keys a query
    result's ``cover`` names its groups by."""
    return {
        parse_predicate(f"S{g} = true").canonical(): g for g in range(groups)
    }


def group_sizes(cluster: Any, groups: int) -> dict[str, int]:
    """Canonical single-group predicate -> its current member count."""
    return {
        key: len(cluster.members_satisfying(f"S{g} = true"))
        for key, g in group_keys(groups).items()
    }


class Phases:
    """Named wall-clock phases of one set-up."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.values: dict[str, float] = {}
        self._mark = time.perf_counter()

    def end(self, name: str) -> None:
        now = time.perf_counter()
        self.seconds[name] = self.seconds.get(name, 0.0) + now - self._mark
        self._mark = now

    @property
    def total(self) -> float:
        return sum(self.seconds.values())


@dataclass
class Setup:
    """The system a workload built, plus what building it cost."""

    system: Any
    phases: Phases
    nodes: int


def first_setup(build: Callable[[], Setup]) -> tuple[Setup, float]:
    """Build once from this process's empty state.

    Returns the set-up and its resident-memory growth per node in KB.
    Later builds in the same process reuse the allocator's freed arenas,
    so only a first build measures memory honestly.
    """
    gc.collect()
    before = rss_bytes()
    setup = build()
    gc.collect()
    return setup, (rss_bytes() - before) / 1024 / setup.nodes


def fresh_setups(workload: str, size_name: str, nodes: int,
                 count: int) -> list[Setup]:
    """``count`` further builds, each timed in a process of its own
    (``setup_once.py``), so that each starts from an empty process state
    as the first build did."""
    setups = []
    for _ in range(count):
        built = subprocess.run(
            [sys.executable, SETUP_ONCE, workload, size_name],
            capture_output=True, text=True, timeout=150,
        )
        if built.returncode != 0:
            raise RuntimeError(
                f"set-up of {workload} failed:\n{built.stderr[-3000:]}"
            )
        report = json.loads(built.stdout)
        phases = Phases()
        phases.seconds = report["seconds"]
        phases.values = report["values"]
        setups.append(Setup(None, phases, nodes))
    return setups


#: convergence: warm waves until a wave's STATUS_UPDATE traffic falls to
#: at most one message per group (adaptive maintenance has settled).
MAX_CONVERGENCE_WAVES = 40


def converge(stats: Any, run_wave: Callable[[], Any], groups: int) -> int:
    """Run warm waves until maintenance traffic settles; returns waves."""
    for waves in range(1, MAX_CONVERGENCE_WAVES + 1):
        before = stats.by_type[mt.STATUS_UPDATE]
        run_wave()
        if stats.by_type[mt.STATUS_UPDATE] - before <= groups:
            return waves
    raise RuntimeError("adaptive maintenance did not converge")


def phase_median(setups: list[Setup], name: str) -> float:
    values = [s.phases.seconds.get(name, s.phases.values.get(name, 0.0))
              for s in setups]
    return statistics.median(values)


@dataclass
class Window:
    """Counters of the fixed-size count window of a simulated run.

    Counts are taken over the first ``units`` waves or rounds of the
    measured phase -- the same work for the same seed, so every count
    metric repeats exactly -- while times come from the whole phase.
    """

    queries: int = 0
    writes: int = 0
    by_type: dict[str, int] = field(default_factory=dict)
    events: int = 0
    total_msgs: int = 0
    fused: int = 0
    batched: int = 0
    size_hits: int = 0
    size_misses: int = 0
    standing_replans: int = 0
    shared: int = 0
    plan_cached: int = 0
    members_reached: int = 0
    sim_latencies: list[float] = field(default_factory=list)
    standing_lags: list[float] = field(default_factory=list)

    def take_stats(self, cluster: Any, events_at_start: int) -> None:
        stats = cluster.stats
        self.by_type = dict(stats.by_type)
        self.events = cluster.engine.events_processed - events_at_start
        self.total_msgs = stats.total_messages
        self.fused = stats.fused_deliveries
        self.batched = stats.batched_messages
        self.size_hits = sum(stats.shard_size_hits.values())
        self.size_misses = sum(stats.shard_size_misses.values())
        self.standing_replans = stats.standing_replans

    def add_results(self, results: list, members_of: Callable[[str], int]) -> None:
        """Fold one batch of :class:`QueryResult` into the window."""
        for result in results:
            self.queries += 1
            self.shared += result.shared
            self.plan_cached += result.plan_cached
            self.sim_latencies.append(result.latency * 1000.0)
            if not (result.shared or result.root_cached):
                # This query's own sub-queries walked its cover trees.
                self.members_reached += sum(members_of(k) for k in result.cover)


@dataclass
class Measured:
    """Everything one measured phase produced."""

    unit_rates: list[float] = field(default_factory=list)
    latencies_ms: list[float] = field(default_factory=list)
    #: per unit: the median and 90th percentile of its queries' latencies
    unit_p50s: list[float] = field(default_factory=list)
    unit_p90s: list[float] = field(default_factory=list)
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    events: int = 0
    window: Optional[Window] = None

    def add_unit_latencies(self, latencies_ms: list[float]) -> None:
        self.latencies_ms.extend(latencies_ms)
        if latencies_ms:
            self.unit_p50s.append(percentile(latencies_ms, 50))
            self.unit_p90s.append(percentile(latencies_ms, 90))


def median_rate(run: Measured) -> float:
    """Queries per second: the median over the run's units (waves,
    rounds or wall-clock windows), so one stall cannot move it."""
    return statistics.median(run.unit_rates)


def end_to_end(
    setups: list[Setup], mem_kb_per_node: float, run: Measured,
) -> dict[str, float]:
    """The end-to-end metrics every workload reports."""
    window = run.window
    return {
        "setup_s": statistics.median(s.phases.total for s in setups),
        "queries_per_s": median_rate(run),
        "latency_ms_p50": statistics.median(run.unit_p50s),
        "latency_ms_p90": statistics.median(run.unit_p90s),
        "msgs_per_query": ratio(
            sum(window.by_type.get(t, 0) for t in QUERY_PLANE), window.queries
        ),
        "mem_kb_per_node": mem_kb_per_node,
    }


def sim_per_layer(setups: list[Setup], run: Measured) -> dict[str, float]:
    """Count metrics of the simulation layers, taken without tracing (on
    ``serve_http`` from the overlay service's backend cluster)."""
    w = run.window
    by_type = w.by_type
    per_layer = {
        "setup.construct_s": phase_median(setups, "construct"),
        "setup.formation_s": phase_median(setups, "formation"),
        "setup.convergence_s": phase_median(setups, "convergence"),
        "setup.subscribe_s": phase_median(setups, "subscribe"),
        "setup.convergence_waves": phase_median(setups, "convergence_waves"),
        "setup.formation_msgs_per_node": phase_median(
            setups, "formation_msgs_per_node"
        ),
        "tree_state.states_per_node": phase_median(setups, "states_per_node"),
        "engine.events_per_query": ratio(w.events, w.queries),
        "engine.events_per_s": ratio(run.events, run.timed_s),
        "network.fused_frac": ratio(w.fused, w.total_msgs),
        "network.batched_frac": ratio(w.batched, w.total_msgs),
        "frontend.subqueries_per_query": ratio(
            by_type.get(mt.FRONTEND_QUERY, 0), w.queries
        ),
        "frontend.shared_frac": ratio(w.shared, w.queries),
        "plan_cache.hit_rate": ratio(w.plan_cached, w.queries),
        "size_cache.hit_rate": ratio(w.size_hits, w.size_hits + w.size_misses),
        "node.query_msgs_per_member": ratio(
            by_type.get(mt.QUERY, 0), w.members_reached
        ),
        "adapt.status_updates_per_write": ratio(
            by_type.get(mt.STATUS_UPDATE, 0), w.writes
        ),
        "standing.deltas_per_write": ratio(
            by_type.get(mt.SUB_DELTA, 0), w.writes
        ),
        "standing.updates_per_write": ratio(
            by_type.get(mt.STANDING_UPDATE, 0), w.writes
        ),
        "standing.replans": float(w.standing_replans),
        "msgs_per_write": ratio(
            sum(n for t, n in by_type.items() if t not in QUERY_PLANE),
            w.writes,
        ),
        "sim_latency_ms_p50": percentile(w.sim_latencies, 50),
        "sim_latency_ms_p99": percentile(w.sim_latencies, 99),
        "standing_lag_ms_p50": percentile(w.standing_lags, 50),
        "standing_lag_ms_p90": percentile(w.standing_lags, 90),
    }
    for mtype in ALL_TYPES:
        den = w.queries if mtype in QUERY_PLANE else w.writes
        per_layer[f"network.msgs.{mtype}"] = ratio(by_type.get(mtype, 0), den)
    return per_layer


def common_per_layer(run: Measured) -> dict[str, float]:
    return {
        "failed_frac": ratio(run.failed, run.attempted),
        "latency.samples": float(len(run.latencies_ms)),
    }


def traced_per_layer(tracer: Any, events: int) -> dict[str, float]:
    """Span-derived per-layer metrics shared by every workload."""
    return {
        "engine.self_us_per_event": ratio(
            tracer.self_s("engine.run") * 1e6, events
        ),
        "network.send_us": tracer.mean_self_us("network.send"),
        "node.handle_us": tracer.mean_self_us("node.handle_message"),
        "frontend.submit_us": tracer.mean_self_us("frontend.submit"),
        "frontend.handle_us": tracer.mean_self_us("frontend.handle_message"),
        "parser.parse_us": tracer.mean_self_us("parser.parse_query"),
        "standing.on_update_us": tracer.mean_self_us("standing.on_update"),
    }


def freeze_heap() -> None:
    """Take the built system out of the cyclic collector's view and pause
    the collector for the measured phase, as ``benchmarks/bench_scale.py``
    does: steady-state garbage is refcounted away, while collections over
    the message churn otherwise land on random waves and double their wall
    time.  Set-up keeps the collector on; :func:`thaw_heap` restores it.
    """
    gc.collect()
    gc.freeze()
    gc.disable()


def thaw_heap() -> None:
    gc.enable()
    gc.unfreeze()
    gc.collect()


@dataclass
class Unit:
    """One wave (dashboard) or one write-then-read round (churn_mix)."""

    queries: list[str]
    results: list
    elapsed_s: float
    latencies_ms: list[float]
    events: int
    writes: int = 0
    standing_lags_ms: list[float] = field(default_factory=list)


def completion_stamps(cluster: Any) -> list[float]:
    """Record the wall time at which each query of the cluster completes.

    Hooks the front-ends' public completion signal (the cluster's own
    waiter keeps working); the returned list is appended to in place.
    """
    stamps: list[float] = []
    clock = time.perf_counter
    for frontend in cluster.frontends:
        inner = frontend.on_query_complete

        def stamp(qid: str, inner: Callable = inner) -> None:
            stamps.append(clock())
            inner(qid)

        frontend.on_query_complete = stamp
    return stamps


def measure_units(
    cluster: Any,
    unit: Callable[[], Unit],
    check: Callable[[Unit], tuple[int, int]],
    seconds: float,
    window_units: int,
    members_of: Callable[[str], int],
    tracer: Any = None,
) -> Measured:
    """Run units until ``seconds`` of unit time *and* the count window
    are done.  ``check`` returns ``(failed, wrong)`` for a unit and runs
    outside the timed region (and with tracing off)."""
    run = Measured(window=Window())
    window = run.window
    cluster.stats.reset()
    events_at_start = cluster.engine.events_processed
    done = 0
    while done < window_units or run.timed_s < seconds:
        if tracer is not None:
            tracer.enabled = True
        out = unit()
        if tracer is not None:
            tracer.enabled = False
        run.timed_s += out.elapsed_s
        run.events += out.events
        run.unit_rates.append(len(out.results) / out.elapsed_s)
        run.add_unit_latencies(out.latencies_ms)
        run.attempted += len(out.queries)
        failed, wrong = check(out)
        run.failed += failed
        run.wrong += wrong
        if done < window_units:
            window.writes += out.writes
            window.standing_lags.extend(out.standing_lags_ms)
            window.add_results(out.results, members_of)
        done += 1
        if done == window_units:
            window.take_stats(cluster, events_at_start)
    return run
