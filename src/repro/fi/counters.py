"""Process-wide named counters: one registry every stats view reads.

A layer declares its counters once (``ff_stats = Counters("ff_",
"restores", ...)``) and increments plain attributes.  Readers never
name a counter: the executor diffs two :func:`snapshot` calls around
each run and folds the :func:`delta` into telemetry with :func:`add`.
Counters are process-local; forked pool workers count into copies,
whose deltas the parent adds back into its own with :func:`credit`.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Mapping

__all__ = ["Counters", "add", "credit", "delta", "snapshot"]

#: every live instance in declaration order; a dropped one unregisters
_REGISTRY: List["weakref.ref[Counters]"] = []


class Counters:
    """A named group of process-wide int counters, all starting at 0."""

    def __init__(self, prefix: str, *names: str) -> None:
        self._keys = tuple((name, prefix + name) for name in names)
        for name in names:
            setattr(self, name, 0)
        _REGISTRY.append(weakref.ref(self, _REGISTRY.remove))


def _live() -> List[Counters]:
    return [group for group in (ref() for ref in tuple(_REGISTRY))
            if group is not None]


def snapshot() -> Dict[str, int]:
    """``{prefix + name: value}`` over every registered counter."""
    return {
        key: getattr(group, name)
        for group in _live()
        for name, key in group._keys
    }


def credit(counts: Mapping[str, int]) -> None:
    """Add *counts*, keyed as :func:`snapshot` names them, into the
    registered counters: a pool worker's delta joins the parent's."""
    for group in _live():
        for name, key in group._keys:
            if key in counts:
                setattr(group, name, getattr(group, name) + counts[key])


def delta(
    before: Mapping[str, int], after: Mapping[str, int]
) -> Dict[str, int]:
    """The non-zero increments from snapshot *before* to *after*."""
    return {
        key: value - before.get(key, 0)
        for key, value in after.items()
        if value != before.get(key, 0)
    }


def add(into: Dict[str, int], counts: Mapping[str, int]) -> None:
    """Add *counts* into *into*, key by key."""
    for key, value in counts.items():
        into[key] = into.get(key, 0) + value
