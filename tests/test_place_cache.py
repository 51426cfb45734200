"""The compositional placement cache: reuse, invalidation, storage.

The ``repro place`` claims under test: a cold solve (empty cache,
every module injected) and a cache-hit re-solve print byte-identical
placement tables; editing one module's fingerprint re-injects only
that module; the merged cached estimate is exactly what one full
uncached campaign with the same seed produces; and the cache lives in
a results database, a cache file of the earlier sqlite layout
included.
"""

import pytest
from conftest import raw_db

from repro.edm.catalogue import EA_BY_NAME, EH_SET, PA_SET
from repro.errors import PlacementError
from repro.fi.campaign import PermeabilityCampaign
from repro.place import (
    Budget,
    PlacementCache,
    build_report,
    cached_estimate,
    ilp_solve,
    instance_from_estimate,
    items_for_signals,
    module_fingerprint,
    system_fingerprints,
)
from repro.target import ArrestmentSimulator, standard_test_cases
from repro.target.wiring import build_arrestment_system

RUNS = 2
SEED = 2002


def factory(test_case):
    return ArrestmentSimulator(test_case, timeout_s=6.0)


@pytest.fixture(scope="module")
def cases():
    return [standard_test_cases()[4], standard_test_cases()[20]]


@pytest.fixture(scope="module")
def full_estimate(cases):
    return PermeabilityCampaign(
        factory, cases, runs_per_input=RUNS, seed=SEED
    ).run()


def _render(estimate):
    system = build_arrestment_system()
    specs = list(EA_BY_NAME.values())
    instance = instance_from_estimate(
        system, estimate, specs, Budget(rom_bytes=150, ram_bytes=54)
    )
    result = ilp_solve(instance)
    report = build_report(
        "arrestment", instance, result,
        [
            ("EH", items_for_signals(instance, EH_SET)),
            ("PA", items_for_signals(instance, PA_SET)),
        ],
    )
    return report.render()


class TestColdVsWarm:
    # the path names a results database whatever its suffix
    @pytest.mark.parametrize("suffix", [".json", ".db"])
    def test_cache_hit_resolve_is_byte_identical(
        self, tmp_path, cases, full_estimate, suffix
    ):
        path = str(tmp_path / f"cache{suffix}")
        with PlacementCache(path) as cache:
            cold, cold_tel = cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
            warm, warm_tel = cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
        assert cold_tel.misses and not cold_tel.hits
        assert warm_tel.hits and not warm_tel.misses
        assert cold.values == full_estimate.values
        assert cold.direct_counts == full_estimate.direct_counts
        assert cold.active_runs == full_estimate.active_runs
        assert _render(cold) == _render(warm)

    def test_legacy_sqlite_cache_file_still_hits(self, tmp_path, cases):
        """A cache file holding only the ``module_estimates`` table
        (the layout of the cache's own sqlite file) opens as a results
        database and answers every module."""
        fresh = str(tmp_path / "results.db")
        with PlacementCache(fresh) as cache:
            cold, _ = cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
        with raw_db(fresh) as db:
            rows = db.execute("SELECT * FROM module_estimates").fetchall()
        legacy = str(tmp_path / "place-cache.db")
        with raw_db(legacy) as db:
            db.execute(
                "CREATE TABLE module_estimates ("
                " module TEXT PRIMARY KEY,"
                " fingerprint TEXT NOT NULL,"
                " payload TEXT NOT NULL)"
            )
            db.executemany(
                "INSERT INTO module_estimates VALUES (?, ?, ?)", rows
            )
        with PlacementCache(legacy) as cache:
            warm, telemetry = cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
        assert not telemetry.misses and len(telemetry.hits) == 6
        assert warm.values == cold.values


class TestInvalidation:
    def test_salted_fingerprint_reinjects_only_that_module(
        self, tmp_path, cases, full_estimate
    ):
        with PlacementCache(str(tmp_path / "results.db")) as cache:
            cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
            salted, telemetry = cached_estimate(
                factory, cases, cache,
                runs_per_input=RUNS, seed=SEED,
                salts={"CLOCK": "rev2"},
            )
        assert telemetry.misses == ("CLOCK",)
        assert "CLOCK" not in telemetry.hits
        assert len(telemetry.hits) == 5
        # the restricted campaign redraws CLOCK with the same seed, so
        # the merged estimate still matches the full campaign
        assert salted.values == full_estimate.values

    def test_forced_invalidation_stores_under_plain_fingerprint(
        self, tmp_path, cases
    ):
        with PlacementCache(str(tmp_path / "results.db")) as cache:
            cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
            _, forced = cached_estimate(
                factory, cases, cache,
                runs_per_input=RUNS, seed=SEED,
                invalidate=("CALC",),
            )
            _, after = cached_estimate(
                factory, cases, cache, runs_per_input=RUNS, seed=SEED
            )
        assert forced.misses == ("CALC",)
        assert not after.misses  # stored back under the plain print

    def test_unknown_modules_are_rejected(self, tmp_path, cases):
        with PlacementCache(str(tmp_path / "results.db")) as cache:
            with pytest.raises(PlacementError):
                cached_estimate(
                    factory, cases, cache,
                    runs_per_input=RUNS, seed=SEED,
                    salts={"NO_SUCH": "x"},
                )
            with pytest.raises(PlacementError):
                cached_estimate(
                    factory, cases, cache,
                    runs_per_input=RUNS, seed=SEED,
                    invalidate=("NO_SUCH",),
                )


class TestFingerprints:
    def test_parameters_move_the_fingerprint(self, cases):
        system = build_arrestment_system()
        labels = [case.label for case in cases]
        base = module_fingerprint(
            system, "CLOCK",
            seed=SEED, runs_per_input=RUNS, direct_only=True,
            case_labels=labels,
        )
        for kwargs in (
            {"seed": SEED + 1},
            {"runs_per_input": RUNS + 1},
            {"direct_only": False},
            {"case_labels": labels[:1]},
            {"salt": "rev2"},
            {"extra": "adaptive:max_runs=9"},
        ):
            merged = {
                "seed": SEED,
                "runs_per_input": RUNS,
                "direct_only": True,
                "case_labels": labels,
                **kwargs,
            }
            assert module_fingerprint(system, "CLOCK", **merged) != base

    def test_system_fingerprints_cover_every_module(self, cases):
        system = build_arrestment_system()
        prints = system_fingerprints(
            system,
            seed=SEED, runs_per_input=RUNS, direct_only=True,
            case_labels=[case.label for case in cases],
        )
        assert sorted(prints) == sorted(
            module.name for module in system.modules()
        )
        assert len(set(prints.values())) == len(prints)


class TestCacheStore:
    def test_stale_fingerprint_misses(self, tmp_path):
        with PlacementCache(str(tmp_path / "results.db")) as cache:
            cache.store("CLOCK", "aaa", {"active": [], "counts": []})
            assert cache.lookup("CLOCK", "aaa") is not None
            assert cache.lookup("CLOCK", "bbb") is None
            assert cache.lookup("CALC", "aaa") is None
            assert cache.modules() == ["CLOCK"]
