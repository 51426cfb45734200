"""Metric assembly: end-to-end from untraced passes, per-layer from
one traced pass.

End-to-end seconds are reference seconds (``hostspeed.py``): host
seconds at the probe's reference speed.  Per-layer ``_s`` metrics are
host seconds of the traced pass; ``host.speed`` is the mean probe speed
during that pass, to read them by.

Per-layer ``_s`` metrics are self seconds under the accounting rule
of ``tracer.py`` (every traced second belongs to one layer), except
``campaign.*_s``, which are inclusive.  Counts come from the
program's own counters.  On ``service-adaptive`` the campaigns run in
forked job children that are not spanned: their layers report what
the job records, queue counters, run-event logs and databases expose,
and zero where the program exposes nothing.
"""

from __future__ import annotations

from typing import Any, Dict

from tracer import read_spans, summarize

#: per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "golden.runs": "count",
    "golden.hits": "count",
    "golden.s": "s",
    "snapshot.tracks": "count",
    "snapshot.track_s": "s",
    "snapshot.restores": "count",
    "snapshot.resyncs": "count",
    "snapshot.ticks_saved": "count",
    "snapshot.restore_s": "s",
    "target.runs": "count",
    "target.ticks": "count",
    "target.s": "s",
    "target.us_per_tick": "us",
    "classify.calls": "count",
    "classify.s": "s",
    "vector.groups": "count",
    "vector.rows": "count",
    "vector.batched_ticks": "count",
    "vector.retired_rows": "count",
    "vector.scalar_fallbacks": "count",
    "vector.occupancy": "ratio",
    "vector.s": "s",
    "vector.ns_per_row_tick": "ns",
    "shm.publish_s": "s",
    "campaign.permeability_s": "s",
    "campaign.detection_s": "s",
    "campaign.memory_s": "s",
    "executor.tasks": "count",
    "executor.self_s": "s",
    "executor.worker_util": "ratio",
    "executor.retries": "count",
    "executor.failures": "count",
    "adaptive.dispatches": "count",
    "adaptive.runs_saved": "count",
    "adaptive.strata_early": "count",
    "store.flushes": "count",
    "store.records": "count",
    "store.bytes": "B",
    "service.submit_s": "s",
    "service.queue_wait_s": "s",
    "service.job_run_s": "s",
    "service.requeues": "count",
    "place.load_s": "s",
    "place.model_s": "s",
    "place.greedy_s": "s",
    "place.ilp_s": "s",
    "experiments.analysis_s": "s",
    "trace.overhead_s": "s",
    "host.speed": "ratio",
}


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(wall_s: float, setup_s: float, planned: int,
               peak_rss_mb: float) -> Dict[str, Any]:
    return {
        "wall_s": _metric(wall_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "tasks_per_s": _metric(planned / wall_s, "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(workload: str, untraced: Dict[str, Any],
              traced: Dict[str, Any]) -> Dict[str, Any]:
    spans, measured = read_spans(traced["spans_path"])
    summary = summarize(spans, measured)
    self_s = summary["self_s"]
    calls = summary["calls"]
    values: Dict[str, float] = {name: 0 for name in PER_LAYER_UNITS}
    values.update({
        "golden.s": self_s.get("golden", 0.0),
        "snapshot.track_s": self_s.get("snapshot.track", 0.0),
        "snapshot.restore_s": self_s.get("snapshot.restore", 0.0),
        "target.runs": calls.get("target", 0),
        "target.ticks": summary["measured"].get("target", 0),
        "target.s": self_s.get("target", 0.0),
        "classify.calls": calls.get("classify", 0),
        "classify.s": self_s.get("classify", 0.0),
        "vector.s": self_s.get("vector", 0.0),
        "shm.publish_s": self_s.get("shm", 0.0),
        "executor.self_s": self_s.get("executor", 0.0),
        "service.submit_s": self_s.get("service.submit", 0.0),
        "place.load_s": self_s.get("place.load", 0.0),
        "place.model_s": self_s.get("place.model", 0.0),
        "place.greedy_s": self_s.get("place.greedy", 0.0),
        "place.ilp_s": self_s.get("place.ilp", 0.0),
        "experiments.analysis_s": self_s.get("experiments", 0.0),
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "host.speed": traced["speed"],
    })
    if workload == "service-adaptive":
        _service_layers(values, traced)
    else:
        _direct_layers(values, traced, summary["inclusive_s"])
    values["target.us_per_tick"] = 1e6 * _ratio(
        values["target.s"], values["target.ticks"]
    )
    values["vector.ns_per_row_tick"] = 1e9 * _ratio(
        values["vector.s"], values["vector.batched_ticks"]
    )
    return {
        name: _metric(values[name], unit)
        for name, unit in PER_LAYER_UNITS.items()
    }


def _process_layers(values: Dict[str, float], counters: Dict[str, int]):
    values.update({
        "golden.runs": counters["golden_misses"],
        "golden.hits": counters["golden_hits"],
        "snapshot.tracks": counters["ff_tracks"],
        "snapshot.restores": counters["ff_restores"],
        "snapshot.resyncs": counters["ff_resyncs"],
        "snapshot.ticks_saved": counters["ff_ticks_saved"],
        "vector.groups": counters["vec_groups"],
        "vector.rows": counters["vec_rows"],
        "vector.batched_ticks": counters["vec_batched_ticks"],
        "vector.retired_rows": counters["vec_retired_rows"],
        "vector.scalar_fallbacks": counters["vec_scalar_fallbacks"],
        "vector.occupancy": _ratio(
            counters["vec_rows"], counters["vec_group_capacity"]
        ),
    })


def _direct_layers(values, traced, inclusive_s):
    _process_layers(values, traced["counters"])
    campaigns = traced["campaigns"].values()
    busy = sum(c["busy_s"] for c in campaigns)
    capacity = sum(c["wall_s"] * c["jobs"] for c in campaigns)
    values.update({
        "campaign.permeability_s": inclusive_s.get(
            "campaign.permeability", 0.0),
        "campaign.detection_s": inclusive_s.get("campaign.detection", 0.0),
        "campaign.memory_s": inclusive_s.get("campaign.memory", 0.0),
        "executor.tasks": sum(c["executed"] for c in campaigns),
        "executor.worker_util": _ratio(busy, capacity),
        "executor.retries": sum(c["retries"] for c in campaigns),
        "executor.failures": sum(c["failures"] for c in campaigns),
    })


def _service_layers(values, traced):
    _process_layers(values, traced["process"])
    events = traced["events"]
    campaigns = [events.get(name, {}) for name in
                 ("permeability", "detection", "memory")]

    def total(field: str) -> float:
        return sum(c.get(field, 0) for c in campaigns)

    jobs = traced["jobs"]
    counters = traced["counters"]
    values.update({
        "campaign.permeability_s": campaigns[0].get("wall_s", 0.0),
        "campaign.detection_s": campaigns[1].get("wall_s", 0.0),
        "campaign.memory_s": campaigns[2].get("wall_s", 0.0),
        "executor.tasks": total("executed"),
        "executor.worker_util": _ratio(total("busy_s"), total("capacity_s")),
        "executor.retries": total("retries"),
        "executor.failures": total("failures"),
        "adaptive.dispatches": total("dispatches"),
        "adaptive.runs_saved": total("runs_saved"),
        "adaptive.strata_early": total("strata_early"),
        "store.flushes": total("flushes"),
        "store.records": traced["store"]["records"],
        "store.bytes": traced["store"]["bytes"],
        "service.queue_wait_s": sum(
            j["started_ts"] - j["submitted_ts"] for j in jobs
            if j["started_ts"] is not None
        ),
        "service.job_run_s": sum(
            j["finished_ts"] - j["started_ts"] for j in jobs
            if j["started_ts"] is not None and j["finished_ts"] is not None
        ),
        "service.requeues": (
            counters.get("jobs_requeued", 0) + counters.get("jobs_retried", 0)
        ),
    })
