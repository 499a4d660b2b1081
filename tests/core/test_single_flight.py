"""Unit tests for the SingleFlight coalescing table and its join rules."""

from __future__ import annotations

import pytest

from repro.core.single_flight import SingleFlight, always_joinable, same_burst
from repro.serve.cache_service import CacheService

#: a root execution key; roots use it as the flight id too.
KEY = ("cpu", "avg", "(pred-0)", "(group-0)")

#: One table per case, built with the case's join predicate and driven
#: by a script of (operation, arguments, expected result) steps.  The
#: first four cases are a root-execution table (always joinable).
#: ``open``, ``join``, ``get`` and ``pop`` are expected to yield the
#: flight's waiters, or None when they yield no flight; ``fail_all``
#: yields the failed flights' waiters; ``len`` the open-flight count.
CASES = {
    "join_requires_open_flight": (
        always_joinable,
        [
            ("join", (KEY, (5, "q1"), None), None),
            ("open", (KEY, KEY), []),
            ("join", (KEY, (5, "q1"), None), [(5, "q1")]),
        ],
    ),
    "pop_returns_waiters_in_order": (
        always_joinable,
        [
            ("open", (KEY, KEY), []),
            ("join", (KEY, (5, "q1"), None), [(5, "q1")]),
            ("join", (KEY, (6, "q2"), None), [(5, "q1"), (6, "q2")]),
            ("pop", (KEY,), [(5, "q1"), (6, "q2")]),
            ("len", (), 0),
            ("join", (KEY, (7, "q3"), None), None),
        ],
    ),
    "pop_unknown_flight_is_none": (
        always_joinable,
        [("pop", (KEY,), None), ("len", (), 0)],
    ),
    "open_is_idempotent": (
        always_joinable,
        [
            ("open", (KEY, KEY), []),
            ("join", (KEY, (5, "q1"), None), [(5, "q1")]),
            ("open", (KEY, KEY), [(5, "q1")]),
            ("len", (), 1),
            ("pop", (KEY,), [(5, "q1")]),
        ],
    ),
    # Front-end probe tables: a flight from another burst may be stuck on
    # a lost reply, so only same-burst callers join; a newer flight for
    # the key takes over joins while the superseded one stays open.
    "same_burst_and_superseded_flights": (
        same_burst,
        [
            ("open", ("g", "pr-1", "q1", 7), ["q1"]),
            ("join", ("g", "q2", 8), None),
            ("join", ("g", "q2", 7), ["q1", "q2"]),
            ("open", ("g", "pr-2", "q3", 8), ["q3"]),
            ("join", ("g", "q4", 8), ["q3", "q4"]),
            ("len", (), 2),
            ("pop", ("pr-1",), ["q1", "q2"]),
            ("join", ("g", "q5", 8), ["q3", "q4", "q5"]),
            ("get", ("pr-2",), ["q3", "q4", "q5"]),
        ],
    ),
    "fail_all_closes_only_matching_flights": (
        same_burst,
        [
            ("open", ("a", "pr-1", "q1", 1, "root-a"), ["q1"]),
            ("open", ("b", "pr-2", "q2", 1, "root-b"), ["q2"]),
            ("fail_all", (lambda flight: flight.data == "root-b",), [["q2"]]),
            ("get", ("pr-2",), None),
            ("join", ("b", "q3", 1), None),
            ("get", ("pr-1",), ["q1"]),
        ],
    ),
}


def _step(table: SingleFlight, operation: str, args: tuple):
    if operation == "len":
        return len(table)
    if operation == "fail_all":
        return [list(flight.waiters) for flight in table.fail_all(*args)]
    flight = getattr(table, operation)(*args)
    return None if flight is None else list(flight.waiters)


@pytest.mark.parametrize("case", sorted(CASES))
def test_table_contract(case: str) -> None:
    joinable, steps = CASES[case]
    table = SingleFlight(joinable)
    for operation, args, expected in steps:
        assert _step(table, operation, args) == expected, (operation, args)


def test_wall_clock_join_window() -> None:
    """The cache service's tier accepts joins for ``join_window`` seconds
    of the service clock after a probe opens (stamps given directly)."""
    tier = CacheService(join_window=0.25).tier
    tier.open_probe("(g = true)", 0, "pr-1", 10.0)
    assert tier.join_probe("(g = true)", 1, 10.2, lambda *a: None)
    assert not tier.join_probe("(g = true)", 2, 10.3, lambda *a: None)
    assert tier.probe_joins == 1
    assert len(tier.resolve_probe("(g = true)", "pr-1", 5.0, 10.4)) == 1
    assert len(tier.probes) == 0
