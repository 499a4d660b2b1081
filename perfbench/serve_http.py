"""``serve_http``: dashboard pollers against the deployed plane.

A one-process :class:`~repro.serve.fleet.Fleet` -- overlay service,
cache service and two HTTP front-ends on loopback -- over a small
overlay, so the backend tree walk stays cheap and the HTTP parse, JSON,
pickle frames and thread hops carry the cost.  Two closed-loop HTTP
clients, one keep-alive connection each, post warm templates to their
own front-end; they run as a separate process (``pollers.py``), as
real clients would, but on the fleet's core (see ``SWITCH_INTERVAL_S``):
the latencies include the pollers' own HTTP and JSON work.  The default
``result_cache_ttl`` is 0, so every warm query still walks its tree.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys

from repro.baselines.centralized import centralized_answer
from repro.campaigns.oracle import values_equal
from repro.core import MoaraCluster
from repro.serve.fleet import Fleet
from repro.serve.frontend_server import jsonable

import harness
from dashboard import DEPLOYMENT_SEED, templates

POLLERS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pollers.py")
#: The fleet co-hosts four roles that production runs as separate
#: processes; in one interpreter they take turns on one lock, and at the
#: default 5 ms switch interval each cross-thread hand-off can wait a whole
#: interval.  With that, and with the roles and the pollers spread over
#: two cores that a shared host can deschedule independently, run-to-run
#: throughput varied by 40%.  The workload therefore runs on one core
#: (threads and the pollers process inherit it) at a 0.5 ms interval.
#: Pollers on a core of their own were noisier still, and slower, so the
#: pollers' client CPU time is part of every latency this workload reports.
SWITCH_INTERVAL_S = 0.0005

SIZES = {
    # warm_s: unmeasured polling before the measured phase; None = one
    # query timeout (see measure).  Tiny runs only smoke-test the path.
    "full": {"nodes": 128, "groups": 8, "group_size": 16, "templates": 12,
             "clients": 2, "warm_s": None, "window_s": 0.5},
    "tiny": {"nodes": 32, "groups": 4, "group_size": 6, "templates": 6,
             "clients": 2, "warm_s": 0.5, "window_s": 0.25},
}


def populate(cluster: MoaraCluster, size: dict) -> list[str]:
    """The fixed deployment's groups; returns its panel templates."""
    rng = random.Random(DEPLOYMENT_SEED)
    ids = cluster.node_ids
    for g in range(size["groups"]):
        cluster.set_group(f"S{g}", rng.sample(ids, size["group_size"]))
    return templates(rng, size["groups"], size["templates"])


class System:
    def __init__(self, cluster: MoaraCluster, fleet: Fleet,
                 texts: list[str]) -> None:
        self.cluster = cluster
        self.fleet = fleet
        self.texts = texts


def build(size: dict) -> harness.Setup:
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    phases = harness.Phases()
    nodes = size["nodes"]
    cluster = MoaraCluster(nodes, num_frontends=0, seed=DEPLOYMENT_SEED)
    texts = populate(cluster, size)
    fleet = Fleet(cluster, num_frontends=size["clients"]).start()
    phases.end("construct")
    for g in range(size["groups"]):
        fleet.http_query(0, f"SELECT COUNT(*) WHERE S{g} = true")
    # The overlay thread is idle between requests: its counters are
    # safe to read from here.
    phases.values["formation_msgs_per_node"] = cluster.stats.total_messages / nodes
    phases.end("formation")
    phases.values["convergence_waves"] = harness.converge(
        cluster.stats,
        lambda: [fleet.http_query(shard, text)
                 for shard in range(size["clients"]) for text in texts],
        size["groups"],
    )
    phases.end("convergence")
    phases.values["states_per_node"] = (
        sum(len(node.states) for node in cluster.nodes.values()) / nodes
    )
    return harness.Setup(System(cluster, fleet, texts), phases, nodes)


def teardown(system: System) -> None:
    system.fleet.close()
    del system.cluster, system.fleet


def _expected(size: dict) -> dict[str, object]:
    """Answers of a same-seed in-process plane, each also checked against
    the centralized oracle, in JSON form."""
    plane = MoaraCluster(
        size["nodes"], num_frontends=size["clients"], seed=DEPLOYMENT_SEED
    )
    texts = populate(plane, size)
    stores = [(nid, node.attributes) for nid, node in plane.nodes.items()]
    expected = {}
    for text in texts:
        value = plane.query(text).value
        if not values_equal(value, centralized_answer(text, stores)):
            raise AssertionError(f"in-process plane is wrong on {text!r}")
        expected[text] = jsonable(value)
    return expected


def _poll(fleet: Fleet, texts: list[str], seed: int, seconds: float) -> dict:
    """Run the pollers process against the fleet's front-ends."""
    job = json.dumps({"ports": fleet.http_ports, "texts": texts,
                      "seed": seed, "seconds": seconds})
    polled = subprocess.run(
        [sys.executable, POLLERS], input=job, capture_output=True, text=True,
        timeout=seconds + 120, check=True,
    )
    return json.loads(polled.stdout)


def measure(system: System, seed: int, size: dict, seconds: float,
            tracer=None) -> harness.Measured:
    cluster = system.cluster
    fleet = system.fleet
    expected = _expected(size)
    members = harness.group_sizes(cluster, size["groups"])
    # Warm throughput is not stationary for the first seconds: the
    # front-ends keep per-request deadline state until the query timeout
    # expires it.  Poll for one timeout first, so the measured phase sees
    # a long-running server's steady state; those answers are checked too.
    warm_s = size["warm_s"]
    if warm_s is None:
        warm_s = fleet.query_timeout + 1.0
    warm = _poll(fleet, system.texts, seed, warm_s)
    wrong = sum(
        status == 200 and not values_equal(reply["value"], expected[text])
        for text, _, _, status, reply in warm["records"]
    )
    cluster.stats.reset()
    frontend_stats = [server.network.stats for server in fleet.frontends]
    for stats in frontend_stats:
        stats.reset()
    events = cluster.engine.events_processed
    if tracer is not None:
        tracer.enabled = True
    try:
        output = _poll(fleet, system.texts, seed, seconds)
    finally:
        if tracer is not None:
            tracer.enabled = False
    start = output["start"]

    run = harness.Measured(window=harness.Window(), wrong=wrong)
    window = run.window
    done = output["records"]
    run.timed_s = seconds
    run.events = cluster.engine.events_processed - events
    window.take_stats(cluster, events)
    window.size_hits = sum(sum(s.shard_size_hits.values()) for s in frontend_stats)
    window.size_misses = sum(
        sum(s.shard_size_misses.values()) for s in frontend_stats
    )
    # Short wall-clock windows are this workload's units: each window's
    # throughput is its completions over the span from its first to its
    # last one, so a stall in one window cannot move the median.
    windows: list[list] = [[] for _ in range(int(seconds / size["window_s"]))]
    for text, started, ended, status, reply in done:
        run.attempted += 1
        slot = int((ended - start) / size["window_s"])
        if slot < len(windows):
            windows[slot].append((ended, (ended - started) * 1000.0))
        if status != 200 or reply.get("failed"):
            run.failed += 1
            continue
        if not values_equal(reply["value"], expected[text]):
            run.wrong += 1
        window.queries += 1
        window.shared += bool(reply["shared"])
        window.plan_cached += bool(reply["plan_cached"])
        if not (reply["shared"] or reply["root_cached"]):
            window.members_reached += sum(members[k] for k in reply["cover"])
    for window_ in windows:
        if len(window_) > 1:
            ends = [ended for ended, _ in window_]
            run.unit_rates.append((len(ends) - 1) / (max(ends) - min(ends)))
            run.add_unit_latencies([latency for _, latency in window_])
    return run


def traced_per_layer(tracer, run: harness.Measured) -> dict:
    """The serve plane's request breakdown, per HTTP request (us).

    ``serve.http_us`` is the client-observed latency outside the
    front-end's request dispatch, less JSON encoding: HTTP/1.1 framing on
    both ends, the loopback socket, and the pollers' own work, which runs
    on the fleet's core.  ``serve.hop_us`` is the dispatch
    time covered by no span on the front-end or overlay threads: thread
    and event-loop hand-offs and socket waits.
    """
    requests = run.attempted
    if not requests:
        return {}

    def per_request_us(seconds: float) -> float:
        return seconds * 1e6 / requests

    dispatch_us = per_request_us(tracer.total_s("serve.dispatch"))
    latency_us = statistics.fmean(run.latencies_ms) * 1000.0
    dumps_us = per_request_us(tracer.total_s("serve.json_dumps"))
    covered_ns = sum(
        ns for thread, ns in tracer.top_level_ns.items()
        if thread.startswith(("frontend-", "overlay-service"))
    )
    covered_us = per_request_us(covered_ns / 1e9) - dumps_us
    return {
        "serve.http_us": latency_us - dispatch_us - dumps_us,
        "serve.json_us": per_request_us(
            tracer.total_s("serve.json_loads") + tracer.total_s("serve.json_dumps")
        ),
        "serve.frame_encode_us": per_request_us(
            tracer.total_s("serve.frame_encode")
        ),
        "serve.frame_decode_us": per_request_us(
            tracer.total_s("serve.frame_decode")
        ),
        "serve.frames_per_query": tracer.calls("serve.frame_encode") / requests,
        "serve.frame_bytes_per_query": tracer.counts["serve.frame_bytes"] / requests,
        "serve.backend_us": per_request_us(tracer.total_s("serve.backend")),
        "serve.cache_rpc_us": per_request_us(tracer.total_s("serve.cache_rpc")),
        "serve.hop_us": dispatch_us - covered_us,
    }
