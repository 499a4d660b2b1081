"""Execution planes: one campaign, two systems under test.

A campaign never talks to :class:`~repro.core.cluster.MoaraCluster` or
:class:`~repro.serve.transport.LoopbackPlane` directly -- it drives a
:class:`CampaignPlane`, a small adapter interface both systems satisfy:

* :class:`SimPlane` -- the in-process simulator with its attached
  front-ends (``MoaraCluster.query_concurrent``).
* :class:`LoopbackCampaignPlane` -- the *deployed shape*: a
  frontend-less backend cluster with unmodified front-ends mounted on
  :class:`~repro.serve.transport.LocalLoopback` transports, the same
  topology the socket fleet deploys.

Because the adapter surface is identical, the same campaign YAML runs on
either plane with ``--plane sim`` / ``--plane loopback``, the invariant
checker sees the same hooks (live attribute stores, wire stats,
in-flight tables), and the JSON reports share one schema -- which is
what lets CI diff the two planes' behaviour on the same scenario.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Union

from repro.core.cluster import MoaraCluster
from repro.core.frontend import Frontend, FrontendConfig
from repro.core.moara_node import MoaraConfig
from repro.core.predicates import Predicate
from repro.core.query import Query, QueryResult
from repro.serve.transport import LoopbackPlane
from repro.sim.latency import (
    LANLatencyModel,
    LatencyModel,
    UniformLatencyModel,
    ZeroLatencyModel,
)
from repro.sim.stats import MessageStats

__all__ = [
    "CampaignPlane",
    "LoopbackCampaignPlane",
    "SimPlane",
    "build_plane",
    "make_latency_model",
]


def make_latency_model(name: str, seed: int = 0) -> LatencyModel:
    """The latency models campaigns may name (``latency:`` key)."""
    if name == "zero":
        return ZeroLatencyModel()
    if name == "lan":
        return LANLatencyModel(seed=seed)
    if name == "uniform":
        return UniformLatencyModel(0.01, 0.1, seed=seed)
    raise ValueError(f"unknown latency model {name!r}")


class CampaignPlane:
    """The adapter surface a campaign driver needs from a system under test.

    Subclasses wrap one deployment topology; everything here is the
    shared part.  ``self.cluster`` is always the :class:`MoaraCluster`
    holding the monitored agents (on the loopback plane that is the
    frontend-less backend), so membership, attributes, time, and wire
    stats are uniform across planes.
    """

    name = "abstract"
    #: True when the plane has transport links that can carry scripted
    #: chaos (``faults:``); the sim plane's front-ends sit in-process.
    supports_link_faults = False

    def __init__(self, cluster: MoaraCluster) -> None:
        self.cluster = cluster
        #: round-robin cursor for standing-query registration, plus the
        #: owning front-end per handle (cancel must go back to the
        #: manager that registered the subscription).
        self._standing_rr = 0
        self._standing_owner: dict[str, Frontend] = {}

    # -- time ----------------------------------------------------------

    @property
    def now(self) -> float:
        return self.cluster.now

    def advance(self, seconds: float) -> None:
        """Let simulated time pass (timers fire, crashes get detected)."""
        if seconds > 0:
            self.cluster.run(seconds)

    def quiesce(self) -> None:
        """Drain all pending protocol activity (gossip, repairs)."""
        self.cluster.run_until_idle()

    # -- queries -------------------------------------------------------

    def query_batch(
        self, queries: list[Union[str, Query]]
    ) -> list[QueryResult]:
        raise NotImplementedError

    # -- standing queries ----------------------------------------------

    def register_standing(self, text: str, lease: float = 0.0):
        """Register a standing query, round-robin across front-ends
        (standing load spreads over shards exactly like one-shots)."""
        fes = self.frontends
        frontend = fes[self._standing_rr % len(fes)]
        self._standing_rr += 1
        handle = frontend.subscribe(text, lease=lease)
        self._standing_owner[handle.sub_id] = frontend
        return handle

    def cancel_standing(self, handle) -> None:
        """Cancel a standing query at its owning front-end."""
        frontend = self._standing_owner.pop(handle.sub_id, None)
        if frontend is not None:
            frontend.standing.cancel(handle)

    # -- membership and state ------------------------------------------

    @property
    def node_ids(self) -> list[int]:
        return self.cluster.node_ids

    def set_attribute(self, node_id: int, name: str, value: Any) -> None:
        self.cluster.set_attribute(node_id, name, value)

    def set_group(
        self,
        attr: str,
        members: Iterable[int],
        member_value: Any = True,
        other_value: Any = False,
    ) -> None:
        self.cluster.set_group(attr, members, member_value, other_value)

    def members_satisfying(
        self, predicate: Union[str, Predicate]
    ) -> set[int]:
        return self.cluster.members_satisfying(predicate)

    def crash(self, node_id: int, detection_delay: float = 0.0) -> None:
        self.cluster.crash_node(node_id, detection_delay=detection_delay)

    def recover(self, node_id: int) -> None:
        """Bring a crashed node back (it rejoins the overlay)."""
        self.cluster.network.recover(node_id)
        if node_id not in self.cluster.overlay:
            self.cluster.overlay.add_node(node_id)

    def join(self) -> int:
        return self.cluster.join_node()

    def leave(self, node_id: int) -> None:
        self.cluster.leave_node(node_id)

    def live_stores(self):
        """``(node_id, attribute_store)`` for every live overlay member --
        the ground truth the differential oracle folds over."""
        cluster = self.cluster
        return [
            (node_id, node.attributes)
            for node_id, node in cluster.nodes.items()
            if node_id in cluster.overlay
            and cluster.network.is_alive(node_id)
        ]

    # -- observability hooks (for the invariant checker) ---------------

    @property
    def stats(self) -> MessageStats:
        """The wire-message ledger (backend stats on the loopback plane --
        :class:`LocalLoopback` mirrors its sends into it)."""
        return self.cluster.stats

    @property
    def frontends(self) -> list[Frontend]:
        raise NotImplementedError

    @property
    def shared_sizes(self):
        raise NotImplementedError

    def standing_stats(self) -> dict[str, int]:
        """Plane-wide standing-query counters.

        Front-end-side counters (registered/updates/...) accrue on each
        front-end's transport ledger, node-side ones (expired) on the
        backend ledger; on the sim plane those are the *same* object, so
        sum distinct ledgers only."""
        ledgers = {id(self.stats): self.stats}
        for fe in self.frontends:
            ledger = fe.network.stats
            ledgers.setdefault(id(ledger), ledger)
        totals = {}
        for key in (
            "standing_registered",
            "standing_updates",
            "standing_replans",
            "standing_expired",
            "standing_cancelled",
        ):
            totals[key[len("standing_"):]] = sum(
                getattr(ledger, key) for ledger in ledgers.values()
            )
        return totals

    def inflight_leaks(self) -> dict[str, int]:
        """Entries still held in any in-flight table.

        At a quiesced phase boundary every one of these must be zero:
        a non-zero count means a query, probe, share, execution, or
        standing subscription was opened and never closed -- the bug
        class the in-flight table refactors are most prone to.
        """
        fes, tier = self.frontends, self.shared_sizes
        # Standing-subscription hygiene: every node-side subscription
        # entry on a *live* node must belong to a standing query some
        # front-end still considers active (dead nodes' tables are
        # unreachable until recovery, when the hygiene cancels fire).
        active_subs: set[str] = set()
        for fe in fes:
            active_subs |= fe.standing.active_sub_ids()
        cluster = self.cluster
        standing_orphans = sum(
            1
            for node_id, node in cluster.nodes.items()
            if node_id in cluster.overlay
            and cluster.network.is_alive(node_id)
            for sub_id in node.standing.sub_ids()
            if sub_id not in active_subs
        )
        return {
            "frontend_pending": sum(fe.inflight for fe in fes),
            "frontend_probes": sum(len(fe.probes) for fe in fes),
            "frontend_shares": sum(len(fe.shares) for fe in fes),
            "node_executions": sum(
                len(node.inflight) for node in cluster.nodes.values()
            ),
            "shared_cache_probes": len(tier.probes) if tier is not None else 0,
            "standing_orphans": standing_orphans,
        }

    # -- link faults (loopback plane only) ------------------------------

    def apply_link_fault(self, spec: Any) -> None:
        raise NotImplementedError(
            f"the {self.name!r} plane has no transport links to fault; "
            f"run faults: campaigns on the loopback plane"
        )

    def probe_duplicates(self) -> int:
        """Cumulative chaos-injected SIZE_PROBE duplicates (the probe
        budget oracle discounts these — they are the wire's doing)."""
        return 0


class SimPlane(CampaignPlane):
    """The in-process simulator: front-ends attached to the cluster."""

    name = "sim"

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        num_frontends: int = 2,
        latency: str = "zero",
        config: Optional[MoaraConfig] = None,
        frontend_config: Optional[FrontendConfig] = None,
    ) -> None:
        super().__init__(
            MoaraCluster(
                num_nodes,
                seed=seed,
                latency_model=make_latency_model(latency, seed=seed),
                config=config,
                frontend_config=frontend_config,
                num_frontends=num_frontends,
            )
        )

    def query_batch(
        self, queries: list[Union[str, Query]]
    ) -> list[QueryResult]:
        return self.cluster.query_concurrent(queries)

    @property
    def frontends(self) -> list[Frontend]:
        return self.cluster.frontends

    @property
    def shared_sizes(self):
        return self.cluster.shared_sizes


class LoopbackCampaignPlane(CampaignPlane):
    """The deployed shape: loopback front-ends over a backend cluster."""

    name = "loopback"
    supports_link_faults = True

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        num_frontends: int = 2,
        latency: str = "zero",
        config: Optional[MoaraConfig] = None,
        frontend_config: Optional[FrontendConfig] = None,
    ) -> None:
        backend = MoaraCluster(
            num_nodes,
            seed=seed,
            latency_model=make_latency_model(latency, seed=seed),
            config=config,
            frontend_config=frontend_config,
            num_frontends=0,
        )
        super().__init__(backend)
        # Chaos wrappers are always mounted (a ChaosTransport with no
        # active faults is a pure pass-through), so a campaign may
        # script faults without rebuilding the plane and fault-free
        # campaigns stay bit-identical to the unwrapped topology.
        self.plane = LoopbackPlane(
            backend,
            num_frontends=num_frontends,
            frontend_config=frontend_config,
            chaos_seed=seed,
        )

    def query_batch(
        self, queries: list[Union[str, Query]]
    ) -> list[QueryResult]:
        return self.plane.query_concurrent(queries)

    def quiesce(self) -> None:
        """Drain the backend *and* the front-end transports: loopback
        front-ends only see backend replies when pumped, so interleave
        until neither side has anything left.  Frames held by a delay
        fault count as pending — the clock advances to their release
        instead of declaring the plane idle with work in flight."""
        while True:
            self.cluster.run_until_idle()
            delivered = sum(t.pump() for t in self.plane.transports)
            if delivered == 0 and self.cluster.engine.pending == 0:
                releases = [
                    release
                    for t in self.plane.transports
                    for release in (
                        getattr(t, "pending_release", lambda: None)(),
                    )
                    if release is not None
                ]
                if not releases:
                    return
                self.cluster.engine.run(until=min(releases))

    def apply_link_fault(self, spec: Any) -> None:
        """Map one campaign ``faults:`` entry onto the chaos wrappers.

        ``spec`` is a :class:`~repro.campaigns.schema.LinkFaultSpec`;
        state faults (drop/delay/duplicate/partition) carry their own
        expiry (``until = now + duration``), so nothing needs a matching
        clear event, and ``reset`` is an instantaneous event with an
        optional dead window.
        """
        from repro.serve.chaos import LinkFault

        if spec.link == "all":
            targets = list(self.plane.transports)
        else:
            if spec.link >= len(self.plane.transports):
                raise ValueError(
                    f"fault names link {spec.link} but the plane has "
                    f"{len(self.plane.transports)} front-end links"
                )
            targets = [self.plane.transports[spec.link]]
        for transport in targets:
            if spec.kind == "reset":
                transport.reset_link(spec.duration)
            else:
                transport.inject(
                    LinkFault(
                        spec.kind,
                        direction=spec.direction,
                        p=spec.p,
                        delay=spec.delay,
                        until=self.now + spec.duration,
                    )
                )

    def probe_duplicates(self) -> int:
        import repro.core.messages as mt

        return sum(
            t.dup_counts.get(mt.SIZE_PROBE, 0)
            for t in self.plane.transports
            if getattr(t, "is_chaos", False)
        )

    @property
    def frontends(self) -> list[Frontend]:
        return self.plane.frontends

    @property
    def shared_sizes(self):
        return self.plane.shared_sizes


def build_plane(
    plane: str,
    num_nodes: int,
    seed: int = 0,
    num_frontends: int = 2,
    latency: str = "zero",
    config: Optional[MoaraConfig] = None,
    frontend_config: Optional[FrontendConfig] = None,
) -> CampaignPlane:
    """Factory keyed by the CLI's ``--plane`` choice."""
    planes = {"sim": SimPlane, "loopback": LoopbackCampaignPlane}
    if plane not in planes:
        raise ValueError(
            f"unknown plane {plane!r}; use one of {sorted(planes)}"
        )
    return planes[plane](
        num_nodes,
        seed=seed,
        num_frontends=num_frontends,
        latency=latency,
        config=config,
        frontend_config=frontend_config,
    )
