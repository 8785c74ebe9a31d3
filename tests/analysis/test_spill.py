"""The analysis cache's persistent spill tier.

What the spill promises:

* every spillable artifact round-trips **exactly** — a fresh process
  loading from disk sees the same values a recompute would produce;
* a fresh cache (a restarted daemon, a sibling pre-fork worker)
  pointed at the same spill directory starts warm: zero recomputes of
  the dataset's own artifacts, ``spill_hits`` accounting for the saved
  work;
* the artifacts of protected traces, which no later request presents
  again, stay memory-only: a sweep spills a fixed number of records per
  dataset, however many jobs it runs;
* corrupt or mismatched records are quarantined and recomputed,
  never raised;
* non-spillable shapes stay memory-only and IO failures only cost
  warmth, not correctness.
"""

from __future__ import annotations

import json

import numpy as np

from repro import EvaluationEngine, geo_ind_system
from repro.analysis import (
    SPILLABLE_KINDS,
    AnalysisCache,
    AnalysisSpill,
    pois_of,
    stay_points_of,
    visit_counts_of,
)
from repro.engine import EvalJob
from repro.geo import LatLon, SpatialGrid
from repro.mobility import Dataset, Trace


def _trace(seed: int, n: int = 400) -> Trace:
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(30.0, 90.0, n))
    lats = 48.85 + np.cumsum(rng.normal(0.0, 5e-5, n))
    lons = 2.35 + np.cumsum(rng.normal(0.0, 5e-5, n))
    return Trace(f"user{seed}", times, lats, lons)


def _clone(trace: Trace) -> Trace:
    """Same content, different object: forces a fresh content key."""
    return Trace(
        trace.user, trace.times_s.copy(), trace.lats.copy(),
        trace.lons.copy(),
    )


class TestRoundTrip:
    def test_stay_points_exact(self, tmp_path):
        warm = AnalysisCache(spill_dir=tmp_path)
        computed = stay_points_of(_trace(0), cache=warm)
        assert computed  # a degenerate empty artifact proves nothing

        fresh = AnalysisCache(spill_dir=tmp_path)
        loaded = stay_points_of(_clone(_trace(0)), cache=fresh)
        assert loaded == computed  # dataclass equality: exact floats
        assert fresh.kind_stats()["stay_points"]["misses"] == 0
        assert fresh.stats["spill_hits"] == 1

    def test_pois_exact(self, tmp_path):
        warm = AnalysisCache(spill_dir=tmp_path)
        computed = pois_of(_trace(1), cache=warm)
        assert computed

        fresh = AnalysisCache(spill_dir=tmp_path)
        loaded = pois_of(_clone(_trace(1)), cache=fresh)
        assert loaded == computed
        # The layered stay-point artifact was served from the spill
        # too: nothing in the POI pipeline was recomputed.
        kind = fresh.kind_stats()
        assert kind["pois"]["misses"] == 0
        assert kind["stay_points"]["misses"] == 0

    def test_visit_counts_exact(self, tmp_path):
        grid = SpatialGrid.around(LatLon(48.85, 2.35), cell_size_m=150.0)
        warm = AnalysisCache(spill_dir=tmp_path)
        computed = visit_counts_of(_trace(2), grid, cache=warm)
        assert computed

        fresh = AnalysisCache(spill_dir=tmp_path)
        loaded = visit_counts_of(_clone(_trace(2)), grid, cache=fresh)
        assert loaded == computed
        assert all(
            isinstance(cell, tuple) and isinstance(n, int)
            for cell, n in loaded
        )
        assert fresh.kind_stats()["visit_counts"]["misses"] == 0


class TestSpillHygiene:
    def test_corrupt_record_is_quarantined_and_recomputed(self, tmp_path):
        warm = AnalysisCache(spill_dir=tmp_path)
        computed = stay_points_of(_trace(3), cache=warm)
        spill = AnalysisSpill(tmp_path)
        key = (warm.trace_key(_trace(3)), "stay_points",
               "200.0|900.0")
        path = spill._path_of(key)
        assert path.exists()
        path.write_text(path.read_text()[:20])  # torn write

        fresh = AnalysisCache(spill_dir=tmp_path)
        recomputed = stay_points_of(_clone(_trace(3)), cache=fresh)
        assert recomputed == computed
        assert fresh.kind_stats()["stay_points"]["misses"] == 1
        assert path.with_name(path.name + ".corrupt").exists()
        # The recompute wrote through again: the record is healed and
        # the *next* fresh process loads it without recomputing.
        assert spill.load(key, "stay_points") == tuple(computed)

    def test_wrong_key_under_digest_is_quarantined(self, tmp_path):
        spill = AnalysisSpill(tmp_path)
        key = ("t:" + "a" * 64, "stay_points", "200.0|900.0")
        path = spill._path_of(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({
            "format_version": 1, "kind": "analysis_artifact",
            "artifact_kind": "stay_points",
            "key": ["somebody", "else", "entirely"], "items": [],
        }))
        assert spill.load(key, "stay_points") is None
        assert path.with_name(path.name + ".corrupt").exists()

    def test_only_closed_families_spill(self):
        key = ("t:" + "a" * 64, "stay_points", "sig")
        assert AnalysisSpill.handles(key, "stay_points")
        for kind in SPILLABLE_KINDS:
            assert AnalysisSpill.handles(key, kind)
        assert not AnalysisSpill.handles(key, "poi_fingerprint")
        # Non-string key parts have no stable digest; stay in memory.
        assert not AnalysisSpill.handles(("t:x", 42), "stay_points")

    def test_store_swallows_io_errors(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file where the spill dir should be")
        spill = AnalysisSpill(blocker / "nested")
        spill.store(("t:" + "b" * 64, "stay_points", "sig"),
                    "stay_points", ())  # must not raise
        cache = AnalysisCache(spill_dir=blocker / "nested")
        assert stay_points_of(_trace(4), cache=cache) is not None


class TestEngineIntegration:
    def test_fresh_engine_starts_warm_from_spill(
        self, taxi_dataset, tmp_path
    ):
        system = geo_ind_system()
        jobs = [
            EvalJob.make({"epsilon": eps}, seed=seed)
            for eps in (0.002, 0.02)
            for seed in (0, 1)
        ]
        first = EvaluationEngine(engine="serial", cache_dir=tmp_path)
        results = first.run(system, taxi_dataset, jobs)
        assert first.analysis.stats["misses"] > 0

        # A "fresh process": no disk result cache (so every evaluation
        # really re-executes), but the analysis spill of the first
        # engine attached — every actual-side artifact (stay points and
        # POIs per user) is already on disk.
        fresh = EvaluationEngine(engine="serial")
        fresh.analysis.attach_spill(tmp_path / "analysis")
        repeat = fresh.run(system, taxi_dataset, jobs)
        assert not any(r.cached for r in repeat)
        assert [(r.privacy, r.utility) for r in repeat] == \
            [(r.privacy, r.utility) for r in results]
        n_users = len(taxi_dataset)
        assert fresh.analysis.stats["spill_hits"] == 2 * n_users
        # Protected traces are one-off: never spilled, so each is
        # computed exactly once per (user, job), then shared in memory
        # by the execution's metrics.
        kind = fresh.analysis.kind_stats()
        assert kind["stay_points"]["misses"] == n_users * len(jobs)
        assert kind["pois"]["misses"] == n_users * len(jobs)

    def test_cache_dir_engine_spills_automatically(
        self, taxi_dataset, tmp_path
    ):
        engine = EvaluationEngine(engine="serial", cache_dir=tmp_path)
        engine.run(
            geo_ind_system(), taxi_dataset,
            [EvalJob.make({"epsilon": 0.01}, seed=0)],
        )
        assert list((tmp_path / "analysis").glob("*/*.json"))

    def test_sweep_spills_only_the_datasets_own_artifacts(
        self, taxi_dataset, commuter_dataset, tmp_path
    ):
        system = geo_ind_system()
        engine = EvaluationEngine(engine="serial", cache_dir=tmp_path)

        def sweep(dataset, n_jobs):
            jobs = [
                EvalJob.make({"epsilon": float(eps)}, seed=seed)
                for eps in np.geomspace(1e-3, 0.1, n_jobs // 2)
                for seed in (0, 1)
            ]
            assert not any(r.cached for r in engine.run(system, dataset, jobs))
            return len(list((tmp_path / "analysis").glob("*/*.json")))

        # Stay points and POIs per user of each dataset, whatever the
        # number of protect + measure executions over it.
        assert sweep(taxi_dataset, 4) == 2 * len(taxi_dataset)
        assert sweep(commuter_dataset, 8) == \
            2 * (len(taxi_dataset) + len(commuter_dataset))

    def test_seeded_traces_stay_spillable_when_announced_one_off(
        self, taxi_dataset, tmp_path
    ):
        # A mechanism may return some actual traces unchanged; announcing
        # its output as one-off must not demote their seeded keys.
        cache = AnalysisCache(spill_dir=tmp_path)
        cache.seed_dataset(taxi_dataset, "fp")
        cache.announce_one_off(taxi_dataset)
        trace = taxi_dataset.traces[0]
        assert cache.trace_key(trace) == f"d:fp:{trace.user}"
        stay_points_of(trace, cache=cache)
        assert len(list(tmp_path.glob("*/*.json"))) == 1

    def test_one_off_traces_never_touch_the_spill(self, tmp_path):
        cache = AnalysisCache(spill_dir=tmp_path)
        dataset = Dataset.from_traces([_trace(6), _trace(7)])
        cache.announce_one_off(dataset)
        for trace in dataset.traces:
            assert cache.trace_key(trace).startswith("o:")
            pois_of(trace, cache=cache)
            pois_of(trace, cache=cache)
        assert not list(tmp_path.glob("*/*.json"))
        assert cache.kind_stats()["stay_points"] == {"hits": 2, "misses": 2}
        # The same content under a plain hashed key still spills.
        stay_points_of(_clone(dataset.traces[0]), cache=cache)
        assert len(list(tmp_path.glob("*/*.json"))) == 1

    def test_memory_only_engine_does_not_spill(self, taxi_dataset):
        engine = EvaluationEngine(engine="serial")
        engine.run(
            geo_ind_system(), taxi_dataset,
            [EvalJob.make({"epsilon": 0.01}, seed=0)],
        )
        assert engine.analysis.stats["spill_hits"] == 0
