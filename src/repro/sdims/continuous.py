"""Continuous (aggregate-on-write) hierarchical aggregation.

This is SDIMS's native mode of operation: an aggregation function is
*installed* for an attribute; every node maintains the partial aggregate of
its subtree and pushes a refreshed partial to its parent whenever its
subtree's aggregate changes.  Reads ("probes") are then answered by the
root from local state in O(1) messages.

Moara deliberately chose one-shot on-demand aggregation instead; the
ablation benchmark ``benchmarks/bench_ablation_continuous.py`` quantifies
the trade-off the paper argues informally: continuous aggregation wins when
reads vastly outnumber writes, and loses badly under write-heavy churn.

This module is also the seed the standing-query plane
(:mod:`repro.standing`) grew from, and remains its **ablation
baseline**: both push deltas up a tree instead of polling, but
continuous mode has no group predicates (one attribute per installation,
every node contributes), no planner or enmeshed multi-group covers, no
leases, and no per-query ordering/staleness contract -- the root just
holds the latest partial.  Keep this module frozen as-is: the
one-shot / continuous / standing comparison (docs/STANDING_QUERIES.md)
is only meaningful while the middle mode stays the simple substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.aggregation import AggregateFunction
from repro.pastry.idspace import IdSpace
from repro.pastry.overlay import Overlay
from repro.sim.engine import Engine
from repro.sim.latency import LatencyModel, ZeroLatencyModel
from repro.sim.network import Message, Network
from repro.sim.stats import MessageStats

__all__ = ["ContinuousAggregationNode", "ContinuousAggregationSystem"]

AGG_UPDATE = "AGG_UPDATE"


@dataclass
class _Installation:
    """Per-(node, attribute) aggregation state."""

    function: AggregateFunction
    local_value: Any = None
    child_partials: dict[int, Any] = field(default_factory=dict)
    last_pushed: Any = None
    pushed_once: bool = False

    def subtree_partial(self, node_id: int) -> Any:
        partial = (
            None
            if self.local_value is None
            else self.function.lift(self.local_value, node_id)
        )
        for child_partial in self.child_partials.values():
            partial = self.function.merge(partial, child_partial)
        return partial


class ContinuousAggregationNode:
    """One node of the aggregate-on-write tree."""

    def __init__(self, node_id: int, overlay: Overlay, network: Network) -> None:
        self.node_id = node_id
        self.overlay = overlay
        self.network = network
        self.installations: dict[str, _Installation] = {}

    def install(self, attr: str, function: AggregateFunction) -> None:
        """Install an aggregation function for an attribute."""
        if attr not in self.installations:
            self.installations[attr] = _Installation(function)

    def set_value(self, attr: str, value: Any) -> None:
        """Update the local reading and propagate the new partial."""
        installation = self.installations[attr]
        installation.local_value = value
        self._push(attr)

    def handle_message(self, message: Message) -> None:
        if message.mtype != AGG_UPDATE:
            raise ValueError(f"unexpected message {message.mtype!r}")
        attr = message.payload["attr"]
        installation = self.installations.get(attr)
        if installation is None:
            return  # not installed here (partial deployment); drop
        installation.child_partials[message.src] = message.payload["partial"]
        self._push(attr)

    def _push(self, attr: str) -> None:
        """Send the refreshed subtree partial to the parent if it changed."""
        installation = self.installations[attr]
        tree_key = self.overlay.space.hash_name(attr)
        parent = self.overlay.parent(self.node_id, tree_key)
        if parent is None:
            return  # we are the root; reads come straight from our state
        partial = installation.subtree_partial(self.node_id)
        if installation.pushed_once and partial == installation.last_pushed:
            return  # suppression: no change, no message
        installation.last_pushed = partial
        installation.pushed_once = True
        self.network.send(
            self.node_id,
            parent,
            AGG_UPDATE,
            {"attr": attr, "partial": partial},
        )

    def root_value(self, attr: str) -> Any:
        """The aggregate over the whole system, as known at this node
        (meaningful when this node is the attribute's tree root)."""
        installation = self.installations[attr]
        return installation.function.finalize(
            installation.subtree_partial(self.node_id)
        )


class ContinuousAggregationSystem:
    """A full aggregate-on-write deployment over a fresh overlay."""

    def __init__(
        self,
        num_nodes: int,
        seed: int = 0,
        latency_model: Optional[LatencyModel] = None,
        space: Optional[IdSpace] = None,
    ) -> None:
        self.engine = Engine()
        self.stats = MessageStats()
        self.network = Network(
            self.engine, latency_model or ZeroLatencyModel(), self.stats
        )
        self.overlay = Overlay(space or IdSpace())
        ids = self.overlay.generate_ids(num_nodes, seed=seed)
        self.nodes: dict[int, ContinuousAggregationNode] = {}
        for node_id in ids:
            node = ContinuousAggregationNode(node_id, self.overlay, self.network)
            self.nodes[node_id] = node
            self.network.attach(node)
        self.overlay.bulk_join(ids)

    @property
    def node_ids(self) -> list[int]:
        return self.overlay.node_ids

    def install(self, attr: str, function: AggregateFunction) -> None:
        """Install an aggregation on every node."""
        for node in self.nodes.values():
            node.install(attr, function)

    def set_value(self, node_id: int, attr: str, value: Any) -> None:
        """Update one node's reading (triggers propagation)."""
        self.nodes[node_id].set_value(attr, value)

    def settle(self, max_events: int = 10_000_000) -> None:
        """Run the engine until propagation quiesces."""
        self.engine.run_until_idle(max_events=max_events)

    def read(self, attr: str) -> Any:
        """Read the global aggregate at the attribute's tree root.

        This is the O(1) read that continuous aggregation buys: the root
        already holds the answer (plus one request/response pair in a real
        deployment, which we charge to stay comparable with Moara)."""
        root = self.overlay.root(self.overlay.space.hash_name(attr))
        # Charge the read round-trip a client would pay.
        self.stats.record_send(-1, (root,), "AGG_READ", {})
        self.stats.record_send(root, (-1,), "AGG_READ_REPLY", {})
        return self.nodes[root].root_value(attr)
