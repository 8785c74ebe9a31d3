"""Bit-identity of the vectorised kernels against the seed kernels.

The perf work in ``repro.attacks`` (incremental stay-point window
extension, buffer-backed POI clustering) and the memoised accessors in
``repro.analysis`` must change *nothing* about the numbers: same stay
points, same POIs, same metric floats.  Every case here compares the
live implementations against the verbatim seed implementations kept in
``tests.analysis.reference`` — with ``==``, never ``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import GeoIndistinguishability
from repro.analysis import AnalysisCache, pois_of, stay_points_of, use_cache
from repro.attacks import (
    PoiExtractionConfig,
    cluster_stay_points,
    extract_pois,
    extract_stay_points,
)
from repro.attacks.staypoints import _BAND
from repro.geo import LocalProjection
from repro.metrics import PoiRetrievalPrivacy, ReidentificationPrivacy
from repro.mobility import Trace

from .reference import (
    _reference_cluster_stay_points,
    _reference_extract_pois,
    _reference_extract_stay_points,
    make_dwelling_trace,
)


def _dwelling_trace(seed: int, n: int = 2000) -> Trace:
    """Alternating dwells and moves — plenty of genuine stay points."""
    return make_dwelling_trace(n, seed=seed)


def _adversarial_traces() -> dict:
    """The edge cases named by the issue, plus a two-record sliver."""
    hour = 3600.0
    return {
        "empty": Trace("e", [], [], []),
        "single_point": Trace("s", [0.0], [48.85], [2.35]),
        "two_points": Trace("p", [0.0, 2 * hour], [48.85, 48.85], [2.35, 2.35]),
        "all_within_radius": Trace(
            "a",
            np.arange(500) * 60.0,
            48.85 + np.sin(np.arange(500)) * 1e-4,
            2.35 + np.cos(np.arange(500)) * 1e-4,
        ),
        "duplicate_timestamps": Trace(
            "d",
            np.repeat(np.arange(250) * 120.0, 2),
            48.85 + np.tile([0.0, 1e-5], 250),
            2.35 + np.tile([0.0, -1e-5], 250),
        ),
        "never_dwells": Trace(
            "n",
            np.arange(400) * 30.0,
            48.0 + np.arange(400) * 0.01,
            2.0 + np.arange(400) * 0.01,
        ),
    }


PARAM_GRID = [
    (200.0, 900.0),
    (50.0, 300.0),
    (1000.0, 7200.0),
]

#: Privacy levels from "no utility left" to "almost no noise": the
#: first leave hardly a window longer than one record, the last keep
#: the genuine stays of the trace.
GEO_IND_EPSILONS = [1e-4, 1e-3, 1e-2, 0.05, 0.2, 1.0]

_DEG_LAT_M = 111_195.0  # metres per degree of latitude, roughly


def _window_trace(window: int, dt_s: float) -> Trace:
    """Trips far beyond every radius around two dwells of ``window``
    records each, the second ending at the last record of the trace."""
    trip = 48.0 + np.arange(5) * 0.02  # ~2.2 km apart
    dwell = np.full(window, 48.3) + np.arange(window) * 1e-6
    lats = np.concatenate([trip, dwell, trip + 0.5, dwell + 0.5])
    times = np.arange(lats.size) * dt_s
    return Trace("w", times, lats, np.full(lats.size, 2.35))


def _banded_traces() -> dict:
    """Windows just inside, at and past the banded pass of the kernel,
    stays ending at the last record, and two-record traces."""
    traces = {}
    for window in (_BAND - 1, _BAND, _BAND + 1, 12 * _BAND):
        for dt_s in (60.0, 1300.0):
            traces[f"window_{window}_dt_{dt_s:g}"] = _window_trace(
                window, dt_s
            )
    # Everything inside the radius: one stay running to record n-1,
    # for traces shorter than, as long as and longer than the band.
    for n in (3, _BAND, _BAND + 1, _BAND + 2, 40):
        traces[f"one_stay_{n}"] = Trace(
            "o", np.arange(n) * 1000.0, np.full(n, 48.85), np.full(n, 2.35)
        )
    # Everything inside but the last record, which the band of the
    # first anchors reaches or just misses.
    for n in (_BAND + 1, _BAND + 2, _BAND + 3):
        lats = np.full(n, 48.85)
        lats[-1] = 49.85
        traces[f"last_outside_{n}"] = Trace(
            "l", np.arange(n) * 1000.0, lats, np.full(n, 2.35)
        )
    for name, lat1, t1 in (
        ("two_far", 49.85, 7200.0),
        ("two_near_short", 48.85, 10.0),
        ("two_near_long", 48.85, 7200.0),
        ("two_same_time", 48.85, 0.0),
    ):
        traces[name] = Trace("2", [0.0, t1], [48.85, lat1], [2.35, 2.35])
    return traces


def _radius_boundary_trace(roam_m: float, offset: int):
    """A trace whose record ``offset`` lies exactly on the roaming
    radius of anchor 0, and that radius as the kernel squares it.

    All records share one longitude, so the kernel's squared distance
    is ``dy ** 2 + 0.0``: using ``|dy|`` itself as the radius makes
    ``d2 == roam2`` hold bit for bit.  Records 1..offset-1 sit at the
    anchor; the record after the boundary is far outside.  With 300 s
    steps the window is a stay only if the boundary record counts as
    inside.
    """
    n = offset + 6
    lats = np.full(n, 48.85)
    lats[offset] += roam_m / _DEG_LAT_M
    lats[offset + 1:] += 0.2
    trace = Trace("r", np.arange(n) * 300.0, lats, np.full(n, 2.35))
    projection = LocalProjection.for_data(trace.lats, trace.lons)
    x, y = projection.to_xy(trace.lats, trace.lons)
    radius = float(abs(y[offset] - y[0]))
    d2 = (x[offset] - x[0]) ** 2 + (y[offset] - y[0]) ** 2
    assert d2 == radius**2  # the boundary really is hit exactly
    return trace, radius


class TestStayPointParity:
    @pytest.mark.parametrize("roam_m,min_dwell_s", PARAM_GRID)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_synthetic_traces_bit_identical(self, seed, roam_m, min_dwell_s):
        trace = _dwelling_trace(seed)
        assert extract_stay_points(trace, roam_m, min_dwell_s) == \
            _reference_extract_stay_points(trace, roam_m, min_dwell_s)

    @pytest.mark.parametrize("name", sorted(_adversarial_traces()))
    @pytest.mark.parametrize("roam_m,min_dwell_s", PARAM_GRID)
    def test_adversarial_traces_bit_identical(self, name, roam_m, min_dwell_s):
        trace = _adversarial_traces()[name]
        assert extract_stay_points(trace, roam_m, min_dwell_s) == \
            _reference_extract_stay_points(trace, roam_m, min_dwell_s)

    def test_dataset_traces_bit_identical(self, taxi_dataset, commuter_dataset):
        for dataset in (taxi_dataset, commuter_dataset):
            for trace in dataset.traces:
                assert extract_stay_points(trace) == \
                    _reference_extract_stay_points(trace)

    @pytest.mark.parametrize("roam_m,min_dwell_s", PARAM_GRID)
    @pytest.mark.parametrize("epsilon", GEO_IND_EPSILONS)
    def test_geo_ind_protected_traces_bit_identical(
        self, epsilon, roam_m, min_dwell_s, taxi_dataset, commuter_dataset
    ):
        # The shape a cold /configure pays for: every execution of the
        # fit runs the POI attack over freshly noised traces.
        for dataset in (taxi_dataset, commuter_dataset):
            protected = GeoIndistinguishability(epsilon).protect(
                dataset, seed=3
            )
            for trace in protected.traces:
                assert extract_stay_points(trace, roam_m, min_dwell_s) == \
                    _reference_extract_stay_points(trace, roam_m, min_dwell_s)

    @pytest.mark.parametrize("roam_m,min_dwell_s", PARAM_GRID)
    def test_repeated_timestamps_on_noisy_traces(
        self, roam_m, min_dwell_s, taxi_dataset
    ):
        protected = GeoIndistinguishability(0.05).protect(
            taxi_dataset, seed=4
        )
        for trace in protected.traces:
            times = np.repeat(trace.times_s[::3], 3)[: len(trace)]
            repeated = Trace(trace.user, times, trace.lats, trace.lons)
            assert extract_stay_points(repeated, roam_m, min_dwell_s) == \
                _reference_extract_stay_points(repeated, roam_m, min_dwell_s)

    @pytest.mark.parametrize("name", sorted(_banded_traces()))
    @pytest.mark.parametrize("roam_m,min_dwell_s", PARAM_GRID)
    def test_band_edges_bit_identical(self, name, roam_m, min_dwell_s):
        trace = _banded_traces()[name]
        assert extract_stay_points(trace, roam_m, min_dwell_s) == \
            _reference_extract_stay_points(trace, roam_m, min_dwell_s)

    @pytest.mark.parametrize("offset", [1, _BAND - 1, _BAND, _BAND + 1, 30])
    @pytest.mark.parametrize("roam_m,min_dwell_s", PARAM_GRID)
    def test_record_exactly_at_radius_counts_as_inside(
        self, offset, roam_m, min_dwell_s
    ):
        trace, radius = _radius_boundary_trace(roam_m, offset)
        stays = extract_stay_points(trace, radius, min_dwell_s)
        assert stays == \
            _reference_extract_stay_points(trace, radius, min_dwell_s)
        if offset * 300.0 >= min_dwell_s:
            assert stays[0].n_records == offset + 1

    def test_block_boundary_independence(self):
        # Windows ending exactly at scan-block boundaries (64, 128, …)
        # must not shift the first-outside decision.
        for window in (63, 64, 65, 127, 128, 129, 191):
            n = 400
            lats = np.full(n, 10.0)
            lats[window:] = 20.0  # far outside any radius
            trace = Trace("b", np.arange(n) * 60.0, lats, np.full(n, 20.0))
            assert extract_stay_points(trace, 200.0, 300.0) == \
                _reference_extract_stay_points(trace, 200.0, 300.0)


class TestClusterParity:
    @pytest.mark.parametrize("merge_m,min_visits", [(100.0, 1), (25.0, 2), (500.0, 1)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_clusters_bit_identical(self, seed, merge_m, min_visits):
        stays = _reference_extract_stay_points(_dwelling_trace(seed))
        assert cluster_stay_points(stays, merge_m, min_visits) == \
            _reference_cluster_stay_points(stays, merge_m, min_visits)

    def test_empty_and_singleton(self):
        assert cluster_stay_points([]) == _reference_cluster_stay_points([])
        stays = _reference_extract_stay_points(_dwelling_trace(3))[:1]
        assert cluster_stay_points(stays) == \
            _reference_cluster_stay_points(stays)

    def test_poi_fields_are_python_floats(self):
        # Cached artifacts are shared and fingerprinted; keep their
        # field types identical to the seed implementation's.
        stays = _reference_extract_stay_points(_dwelling_trace(0))
        for poi in cluster_stay_points(stays):
            assert type(poi.lat) is float and type(poi.lon) is float
            assert type(poi.n_visits) is int
            assert type(poi.total_dwell_s) is float


class TestPipelineParity:
    def test_extract_pois_matches_reference(self):
        config = PoiExtractionConfig(roam_m=150.0, min_dwell_s=600.0,
                                     merge_m=80.0, min_visits=1)
        for seed in (0, 1):
            trace = _dwelling_trace(seed)
            assert extract_pois(trace, config) == \
                _reference_extract_pois(trace, config)

    def test_cached_accessors_match_reference(self):
        config = PoiExtractionConfig()
        trace = _dwelling_trace(4)
        with use_cache(AnalysisCache()):
            assert list(stay_points_of(trace)) == \
                _reference_extract_stay_points(trace)
            # Twice: the cached answer must equal the computed one.
            assert list(pois_of(trace, config)) == \
                _reference_extract_pois(trace, config)
            assert list(pois_of(trace, config)) == \
                _reference_extract_pois(trace, config)

    def test_poi_retrieval_metric_matches_reference(self, commuter_dataset):
        from repro.attacks import retrieved_fraction

        protected = GeoIndistinguishability(epsilon=0.01).protect(
            commuter_dataset, seed=5
        )
        metric = PoiRetrievalPrivacy()
        with use_cache(AnalysisCache()):
            value = metric.evaluate(commuter_dataset, protected)
            per_user = metric.evaluate_per_user(commuter_dataset, protected)
        expected = {}
        for user in commuter_dataset.users:
            actual_pois = _reference_extract_pois(
                commuter_dataset[user], metric.extraction
            )
            if not actual_pois:
                continue
            found = _reference_extract_pois(protected[user], metric.extraction)
            expected[user] = retrieved_fraction(
                actual_pois, found, metric.match_m, metric.one_to_one
            )
        assert per_user == expected
        assert value == float(np.mean(list(expected.values())))

    def test_reidentification_metric_matches_reference(self, commuter_dataset):
        from repro.attacks.reident import fingerprint_distance_m

        protected = GeoIndistinguishability(epsilon=0.005).protect(
            commuter_dataset, seed=9
        )
        metric = ReidentificationPrivacy()
        with use_cache(AnalysisCache()):
            rate = metric.evaluate(commuter_dataset, protected)
        prints = {
            u: _reference_extract_pois(commuter_dataset[u], metric.extraction)
            for u in commuter_dataset.users
        }
        users = sorted(prints)
        correct = 0
        for user in users:
            found = _reference_extract_pois(protected[user], metric.extraction)
            distances = [fingerprint_distance_m(prints[u], found) for u in users]
            if users[int(np.argmin(distances))] == user:
                correct += 1
        assert rate == correct / len(users)

    @pytest.mark.parametrize("epsilon", [1e-3, 5e-3, 0.05])
    def test_stacked_fingerprint_distances_match_pairwise(
        self, epsilon, commuter_dataset, taxi_dataset
    ):
        # reidentify scores a protected trace against every actual
        # fingerprint in one pass; each score must equal the pairwise
        # fingerprint_distance_m exactly, empty POI sets included.
        from repro.attacks.reident import _Fingerprints, fingerprint_distance_m

        config = PoiExtractionConfig()
        for dataset in (commuter_dataset, taxi_dataset):
            protected = GeoIndistinguishability(epsilon).protect(
                dataset, seed=2
            )
            prints = [extract_pois(t, config) for t in dataset.traces]
            stacked = _Fingerprints(prints + [[]])
            for trace in protected.traces + dataset.traces:
                found = extract_pois(trace, config)
                assert stacked.distances_to(found) == [
                    fingerprint_distance_m(p, found) for p in prints + [[]]
                ]

    def test_heatmap_distribution_matches_uncached_shape(self, taxi_dataset):
        from repro.geo import SpatialGrid
        from repro.metrics import visit_distribution

        grid = SpatialGrid.around(taxi_dataset.centroid(), 600.0)
        with use_cache(AnalysisCache()):
            dist_a = visit_distribution(taxi_dataset, grid)
            dist_b = visit_distribution(taxi_dataset, grid)  # cached pass
        assert dist_a == dist_b
        assert abs(sum(dist_a.values()) - 1.0) < 1e-12


class TestDatasetFingerprintStability:
    def test_fingerprint_unchanged_by_this_pr(self, taxi_dataset):
        # Job fingerprints key the durable disk cache; the memoisation
        # of dataset_fingerprint must not change its value.
        from repro.engine import dataset_fingerprint
        from repro.engine.jobs import _compute_dataset_fingerprint

        assert dataset_fingerprint(taxi_dataset) == \
            _compute_dataset_fingerprint(taxi_dataset)
        # Memoised repeat answers the same string.
        assert dataset_fingerprint(taxi_dataset) == \
            dataset_fingerprint(taxi_dataset)
