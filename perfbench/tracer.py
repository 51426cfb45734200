"""Spans around the program's public layer boundaries.

The benchmark never edits the program.  In a traced run it replaces a
handful of public functions and methods with thin wrappers that record
one span per call (name, start, end, parent span, run id), keeps every
span in memory, and writes them out once the run is over.  Per-layer
metrics are then derived from the spans plus the counters the program
already exposes.

Accounting rule: every traced second belongs to exactly one layer.  A
span's self time is its duration minus its direct children's.  The
simulator runs (and their verdicts) made while recording a golden run
or a checkpoint track are charged to the golden or track layer, not to
``target``/``classify``: both are set-up work whose cost moves
``setup_s``, while ``target.*`` is the simulation of injected runs,
which moves ``wall_s``.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: layers that absorb the simulator work nested inside them
OPAQUE_LAYERS = frozenset({"golden", "snapshot.track"})
#: layers whose spans an opaque ancestor absorbs
ABSORBED_LAYERS = frozenset({"target", "classify"})

#: (span id, layer, start, end, parent span id or 0)
Span = Tuple[int, str, float, float, int]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        #: span id -> a quantity measured at the span's boundary
        self.measured: Dict[int, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        layer: str,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        measure: Optional[Callable[..., Callable[[], int]]] = None,
    ):
        """Call *fn* inside one span of *layer*.

        *measure*, when given, is called with the call's arguments
        before the call and returns a callable evaluated after it; its
        value is kept as the span's measured quantity.
        """
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        settle = measure(*args, **kwargs) if measure is not None else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, layer, start, end, parent))
            if settle is not None:
                self.measured[span_id] = settle()

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        measure: Optional[Callable[..., Callable[[], int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) with
        a span-recording wrapper."""
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, original, args, kwargs, measure)

        self._set(owner, attr, wrapper)
        self._installed.append((owner, attr, original))

    @staticmethod
    def _set(owner: Any, attr: str, value: Any) -> None:
        if isinstance(owner, dict):
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            self._set(owner, attr, original)
        self._installed.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, layer, start, end, parent in self.spans:
                record = {
                    "id": span_id, "name": layer, "start": start,
                    "end": end, "parent": parent, "run": self.run_id,
                }
                if span_id in self.measured:
                    record["measured"] = self.measured[span_id]
                handle.write(json.dumps(record) + "\n")


def read_spans(path: str) -> Tuple[List[Span], Dict[int, int]]:
    spans: List[Span] = []
    measured: Dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            spans.append((
                record["id"], record["name"], record["start"],
                record["end"], record["parent"],
            ))
            if "measured" in record:
                measured[record["id"]] = record["measured"]
    return spans, measured


def summarize(spans: List[Span], measured: Dict[int, int]) -> Dict[str, Any]:
    """Per-layer self seconds, inclusive seconds, span counts and
    measured totals, under the accounting rule of the module
    docstring.  Inclusive time counts only a layer's outermost spans,
    so a layer that re-enters itself is not counted twice."""
    by_id = {span[0]: span for span in spans}
    children: Dict[int, float] = defaultdict(float)
    for span_id, _, start, end, parent in spans:
        if parent:
            children[parent] += end - start

    def ancestors(span: Span):
        parent = span[4]
        while parent:
            ancestor = by_id.get(parent)
            if ancestor is None:
                return
            yield ancestor
            parent = ancestor[4]

    self_s: Dict[str, float] = defaultdict(float)
    inclusive_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        span_id, layer, start, end, _ = span
        charged = layer
        if layer in ABSORBED_LAYERS:
            for ancestor in ancestors(span):
                if ancestor[1] in OPAQUE_LAYERS:
                    charged = ancestor[1]
                    break
        self_s[charged] += (end - start) - children[span_id]
        if charged == layer:
            calls[layer] += 1
            totals[layer] += measured.get(span_id, 0)
        if not any(a[1] == layer for a in ancestors(span)):
            inclusive_s[layer] += end - start
    return {
        "self_s": dict(self_s),
        "inclusive_s": dict(inclusive_s),
        "calls": dict(calls),
        "measured": dict(totals),
    }


def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls into each layer of the program."""
    import repro.experiments.runner as runner
    import repro.fi.campaign as campaign
    from repro.fi.executor import CampaignExecutor, GoldenRunCache
    from repro.fi.shm import ShmArrayPack
    from repro.fi.snapshot import CheckpointStore, FastForward, TrackPool
    from repro.fi.store import SqliteResultStore
    from repro.fi.vector import BatchRunner
    from repro.place import model as place_model
    from repro.place import solvers as place_solvers
    from repro.service.client import ServiceClient
    from repro.target.failure import FailureClassifier
    from repro.target.simulation import ArrestmentSimulator

    def ticks_simulated(simulator, *_args, **_kwargs):
        before = simulator.executor.tick
        return lambda: simulator.executor.tick - before

    tracer.wrap(GoldenRunCache, "get", "golden")
    tracer.wrap(CheckpointStore, "get", "snapshot.track")
    tracer.wrap(FastForward, "preload", "snapshot.track")
    tracer.wrap(FastForward, "launch", "snapshot.restore")
    tracer.wrap(ArrestmentSimulator, "run", "target", ticks_simulated)
    tracer.wrap(campaign, "first_output_differences", "classify")
    tracer.wrap(FailureClassifier, "verdict", "classify")
    tracer.wrap(BatchRunner, "__init__", "vector")
    tracer.wrap(BatchRunner, "__call__", "vector")
    tracer.wrap(ShmArrayPack, "publish", "shm")
    tracer.wrap(TrackPool, "publish", "shm")
    tracer.wrap(campaign.PermeabilityCampaign, "run", "campaign.permeability")
    tracer.wrap(campaign.DetectionCampaign, "run", "campaign.detection")
    tracer.wrap(campaign.MemoryCampaign, "run", "campaign.memory")
    tracer.wrap(CampaignExecutor, "run_tasks", "executor")
    for exp_id in list(runner.EXPERIMENTS):
        tracer.wrap(runner.EXPERIMENTS, exp_id, "experiments")
    tracer.wrap(ServiceClient, "submit", "service.submit")
    tracer.wrap(SqliteResultStore, "load_result", "place.load")
    tracer.wrap(place_model, "instance_from_estimate", "place.model")
    tracer.wrap(place_solvers, "greedy_solve", "place.greedy")
    tracer.wrap(place_solvers, "ilp_solve", "place.ilp")
