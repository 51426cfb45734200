"""Placement search: cold solve vs compositional cache-hit re-solve.

Runs the full ``repro place`` pipeline on the arrestment target — a
permeability campaign through the compositional cache, instance
construction, and both solvers — cold (empty cache, every module
injected), then again after invalidating a single module.  Asserts
the tentpole claims: the ILP proves optimality, the solved set
dominates both hand-derived sets on coverage per byte, the re-solve
answers five modules from the cache and re-injects exactly one, its
placement table is byte-identical to the cold one, and (at the bench
and full scales) the cached re-solve is at least 5x faster than the
cold solve.  Records everything to ``BENCH_place.json``.
"""

from __future__ import annotations

import json
import os
import time

from conftest import run_once, strict

from repro.edm.catalogue import EH_SET, PA_SET
from repro.place import (
    Budget,
    PlacementCache,
    build_report,
    cached_estimate,
    greedy_solve,
    ilp_solve,
    instance_from_estimate,
    items_for_signals,
)
from repro.targets import get_target

#: the module invalidated for the re-solve (one input port, so the
#: incremental campaign is a small slice of the cold one)
CHANGED_MODULE = "CLOCK"


def _record_bench(entry, payload):
    """Merge one entry into ``BENCH_place.json`` (order-independent,
    same shape as the other BENCH files)."""
    data = {}
    if os.path.exists("BENCH_place.json"):
        try:
            with open("BENCH_place.json") as handle:
                loaded = json.load(handle)
        except (OSError, ValueError):
            loaded = None
        if isinstance(loaded, dict) and all(
            isinstance(value, dict) for value in loaded.values()
        ):
            data = loaded
    data[entry] = payload
    with open("BENCH_place.json", "w") as handle:
        json.dump(data, handle, indent=2)


def _solve(target, estimate, budget):
    system = target.build_system()
    specs = target.assertion_specs()
    instance = instance_from_estimate(system, estimate, specs, budget)
    result = ilp_solve(instance)
    report = build_report(
        target.name, instance, result,
        [
            ("EH", items_for_signals(instance, EH_SET)),
            ("PA", items_for_signals(instance, PA_SET)),
        ],
    )
    return instance, result, report


def test_bench_place_cold_vs_cached(benchmark, ctx, tmp_path):
    target = get_target("arrestment")
    cases = ctx.test_cases
    runs = ctx.scale.runs_per_input
    specs = target.assertion_specs()
    by_signal = {spec.signal: spec for spec in specs}
    budget = Budget(
        rom_bytes=sum(by_signal[s].rom_bytes for s in PA_SET),
        ram_bytes=sum(by_signal[s].ram_bytes for s in PA_SET),
    )
    cache = PlacementCache(str(tmp_path / "results.db"))

    def cold_solve():
        estimate, telemetry = cached_estimate(
            target, cases, cache, runs_per_input=runs, seed=ctx.seed
        )
        return _solve(target, estimate, budget), telemetry

    t0 = time.perf_counter()
    (instance, result, report), cold_tel = run_once(benchmark, cold_solve)
    cold_s = time.perf_counter() - t0
    assert not cold_tel.hits
    assert len(cold_tel.misses) == 6

    # the tentpole claims: provable optimality, and dominance over
    # both hand sets on coverage per byte
    assert result.optimal
    assert report.dominates_all
    greedy = greedy_solve(instance)
    assert greedy.selected == result.selected

    # re-solve after one module changes: five cache hits, one miss
    t0 = time.perf_counter()
    estimate2, warm_tel = cached_estimate(
        target, cases, cache,
        runs_per_input=runs, seed=ctx.seed,
        invalidate=(CHANGED_MODULE,),
    )
    _, result2, report2 = _solve(target, estimate2, budget)
    resolve_s = time.perf_counter() - t0
    cache.close()
    assert warm_tel.misses == (CHANGED_MODULE,)
    assert len(warm_tel.hits) == 5
    # same seed per module => same counts => byte-identical table
    assert report2.render() == report.render()

    speedup = cold_s / resolve_s if resolve_s > 0 else 0.0
    print()
    print(f"place bench (scale {ctx.scale.name}, {len(cases)} cases, "
          f"{runs} runs/input)")
    print(f"  cold solve        : {cold_s:.2f} s "
          f"(reinjected {','.join(cold_tel.misses)})")
    print(f"  cached re-solve   : {resolve_s:.2f} s "
          f"(reinjected {','.join(warm_tel.misses)})")
    print(f"  speedup           : {speedup:.2f}x")
    print(f"  solved set        : {','.join(result.selected)} "
          f"coverage {result.coverage:.4f} "
          f"({result.nodes} ILP nodes)")

    _record_bench(
        "place",
        {
            "target": target.name,
            "scale": ctx.scale.name,
            "cases": len(cases),
            "runs_per_input": runs,
            "budget_rom": budget.rom_bytes,
            "budget_ram": budget.ram_bytes,
            "cold_solve_s": round(cold_s, 3),
            "cached_resolve_s": round(resolve_s, 3),
            "speedup": round(speedup, 2),
            "changed_module": CHANGED_MODULE,
            "resolve_hits": len(warm_tel.hits),
            "resolve_misses": len(warm_tel.misses),
            "resolve_byte_identical": True,
            "selected": list(result.selected),
            "coverage": round(result.coverage, 6),
            "ilp_optimal": result.optimal,
            "ilp_nodes": result.nodes,
            "greedy_agrees": greedy.selected == result.selected,
            "dominates_eh": report.hand_sets[0].dominated,
            "dominates_pa": report.hand_sets[1].dominated,
            "coverage_per_byte": round(
                instance.coverage_per_byte(result.selected), 8
            ),
        },
    )

    # the speedup bound needs a baseline long enough that the ratio
    # is not dominated by timing jitter on a loaded CI box
    if strict(ctx) and cold_s >= 1.0:
        assert speedup >= 5.0, (
            f"expected >=5x cached re-solve speedup after changing "
            f"one module, measured {speedup:.2f}x"
        )
    else:
        print(f"  (speedup bound not asserted: scale {ctx.scale.name}, "
              f"baseline {cold_s:.2f} s)")
