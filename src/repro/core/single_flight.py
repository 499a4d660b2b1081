"""One in-flight coalescing table: the first caller does the work, later
identical callers wait on its answer.

Front-end size probes, front-end shared sub-queries, the shared size
tier's probe registry and root executions each own a
:class:`SingleFlight`.  They differ only in the ``joinable(flight,
token)`` predicate passed when the table is built: :func:`same_burst`
(the front-end tables and the in-process tier: an older flight may be
stuck on a lost reply), a wall-clock window (the cache service, whose
remote shards share no event counter), or :func:`always_joinable` (root
executions, which always finalize).

A flight is indexed by its ``flight_id`` (the tag its reply carries) and
by its ``key`` (what identical callers share).  A newer flight for a key
becomes the joinable one; the superseded flight stays open under its id
until popped, and what happens to its waiters is the owning site's rule.
Whatever resolves a flight -- an answer, a departed root, a dead link --
pops it and releases every waiter (Section 7: an explicit NULL, never a
hang).  ``len()`` counts open flights: the campaign oracle's leak count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional

__all__ = ["Flight", "SingleFlight", "always_joinable", "same_burst"]


@dataclass(slots=True)
class Flight:
    """One in-flight unit of work and the callers waiting on it."""

    key: Hashable
    flight_id: Hashable
    #: the opener's stamp, read by the table's join predicate
    token: Any
    #: callers to release when the flight resolves, in arrival order
    waiters: list
    #: site-owned state (probe target, aggregation state, prober)
    data: Any


def same_burst(flight: Flight, token: Any) -> bool:
    """Joinable only within the synchronous burst that opened it."""
    return flight.token == token


def always_joinable(flight: Flight, token: Any) -> bool:
    """Joinable until popped."""
    return True


class SingleFlight:
    """Open flights, by id and by shared key."""

    __slots__ = ("_can_join", "_flights", "_by_key")

    def __init__(self, joinable: Callable[[Flight, Any], bool]) -> None:
        self._can_join = joinable
        self._flights: dict[Hashable, Flight] = {}
        #: key -> the flight later callers for that key may join
        self._by_key: dict[Hashable, Flight] = {}

    def __len__(self) -> int:
        return len(self._flights)

    def open(
        self,
        key: Hashable,
        flight_id: Hashable,
        waiter: Any = None,
        token: Any = None,
        data: Any = None,
    ) -> Flight:
        """Start a flight for ``key`` (``waiter``, if any, is its first);
        re-opening an open ``flight_id`` returns that flight unchanged."""
        flight = self._flights.get(flight_id)
        if flight is None:
            waiters = [] if waiter is None else [waiter]
            flight = Flight(key, flight_id, token, waiters, data)
            self._flights[flight_id] = self._by_key[key] = flight
        return flight

    def join(self, key: Hashable, waiter: Any, token: Any) -> Optional[Flight]:
        """Add ``waiter`` to the key's flight if it is joinable; returns
        that flight, or None (the caller does the work itself)."""
        flight = self._by_key.get(key)
        if flight is None or not self._can_join(flight, token):
            return None
        flight.waiters.append(waiter)
        return flight

    def get(self, flight_id: Hashable) -> Optional[Flight]:
        """The open flight with this id, left open."""
        return self._flights.get(flight_id)

    def pop(self, flight_id: Hashable) -> Optional[Flight]:
        """Close a flight and return it (None if it is not open)."""
        flight = self._flights.pop(flight_id, None)
        if flight is not None and self._by_key.get(flight.key) is flight:
            del self._by_key[flight.key]
        return flight

    def fail_all(self, match: Callable[[Flight], bool]) -> list[Flight]:
        """Close every flight ``match`` selects and return them, in
        opening order, for the caller to release.  All close before any
        is released, so a cascading release cannot resolve one twice."""
        failed = [flight for flight in self._flights.values() if match(flight)]
        for flight in failed:
            self.pop(flight.flight_id)
        return failed
