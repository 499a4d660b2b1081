"""Per-node attribute store.

Paper Section 3.1: "Information at each node is represented and stored as
(attribute, value) tuples. ... Moara has an agent running at each node that
monitors the node and populates (attribute, value) pairs."

The store notifies listeners on changes so the protocol layer can re-evaluate
predicate satisfaction (group churn).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Optional

__all__ = ["AttributeStore", "AttributeValue"]

AttributeValue = Any  # numbers, strings, and booleans in practice
ChangeListener = Callable[[str, Optional[AttributeValue], Optional[AttributeValue]], None]


class AttributeStore(Mapping[str, AttributeValue]):
    """A mapping of attribute name to current value with change callbacks."""

    def __init__(self, initial: Optional[Mapping[str, AttributeValue]] = None) -> None:
        self._values: dict[str, AttributeValue] = dict(initial or {})
        self._listeners: list[ChangeListener] = []

    # Mapping interface -------------------------------------------------
    # __contains__ and get are overridden (the Mapping ABC versions go
    # through __getitem__ and exception handling): predicate evaluation
    # probes attributes on every query at every node.

    def __getitem__(self, name: str) -> AttributeValue:
        return self._values[name]

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def get(self, name: str, default: Any = None) -> AttributeValue:
        """Direct dict.get passthrough (hot path)."""
        return self._values.get(name, default)

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    # mutation -----------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> None:
        """Register ``listener(name, old_value, new_value)`` for changes."""
        self._listeners.append(listener)

    def set(self, name: str, value: AttributeValue) -> bool:
        """Set an attribute; returns True when the value actually changed."""
        existed = name in self._values
        old = self._values.get(name)
        if existed and old == value and type(old) is type(value):
            return False
        self._values[name] = value
        self._notify(name, old if existed else None, value)
        return True

    def update(self, values: Mapping[str, AttributeValue]) -> int:
        """Set many attributes; returns how many changed."""
        return sum(1 for name, value in values.items() if self.set(name, value))

    def delete(self, name: str) -> bool:
        """Remove an attribute; returns True if it existed."""
        if name not in self._values:
            return False
        old = self._values.pop(name)
        self._notify(name, old, None)
        return True

    def _notify(
        self,
        name: str,
        old: Optional[AttributeValue],
        new: Optional[AttributeValue],
    ) -> None:
        for listener in self._listeners:
            listener(name, old, new)

    @property
    def data(self) -> dict[str, AttributeValue]:
        """The live underlying dict -- treat as read-only.

        Hot-path view: predicate evaluation against a plain dict uses
        C-level ``dict.get`` instead of Python-level Mapping methods.
        Mutations must still go through :meth:`set` / :meth:`delete` so
        change listeners fire."""
        return self._values
