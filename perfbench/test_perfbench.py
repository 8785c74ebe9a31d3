"""Self-tests of the benchmark: tail rule, generator determinism, span arithmetic.

Run with ``python -m pytest perfbench``; none of them boots a daemon.
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from loadgen import percentile, tail  # noqa: E402
from spans import Recorder, Span, covered, layer_totals, link, load_spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# ----------------------------------------------------------------------
# Tail-percentile rule
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank_and_counts_samples_beyond():
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == (50, 50)
    assert percentile(samples, 0.9) == (90, 10)
    assert percentile(samples, 0.99) == (99, 1)


def test_tail_reports_the_quantile_when_ten_samples_lie_beyond():
    samples = [float(i) for i in range(1, 1001)]
    assert tail(samples, 0.99) == (990.0, 0.99, 10)


def test_tail_falls_back_to_the_highest_quantile_with_ten_beyond():
    samples = [float(i) for i in range(1, 501)]
    value, q, beyond = tail(samples, 0.99)
    assert (value, beyond) == (490.0, 10)
    assert q == pytest.approx(0.98)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_refuses_a_sample_too_small_for_any_tail():
    with pytest.raises(ValueError):
        tail([1.0] * 10, 0.5)


# ----------------------------------------------------------------------
# Seeded request generators
# ----------------------------------------------------------------------
def _take(workload, seed, index, n=60):
    stream = WORKLOADS[workload](seed).requests(index)
    return [(r.kind, r.method, r.path, r.body) for r in itertools.islice(stream, n)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _take(workload, 7, 0) == _take(workload, 7, 0)
    assert _take(workload, 7, 0) != _take(workload, 8, 0)


@pytest.mark.parametrize("workload", ["warm_query", "stream_ingest"])
def test_connections_get_distinct_streams(workload):
    assert _take(workload, 7, 0) != _take(workload, 7, 1)


def test_warm_query_mix_and_repeat_share():
    kinds = [r[0] for r in _take("warm_query", 3, 0, n=4000)]
    share = {k: kinds.count(k) / len(kinds) for k in set(kinds)}
    assert share["recommend"] == pytest.approx(0.5, abs=0.03)
    assert share["repeat"] == pytest.approx(0.4, abs=0.03)
    assert share["healthz"] == pytest.approx(0.1, abs=0.03)
    bodies = [r[3] for r in _take("warm_query", 3, 0, n=4000) if r[0] == "recommend"]
    assert len(set(bodies)) == len(bodies)


@pytest.mark.parametrize("workload", ["cold_configure", "stream_ingest"])
def test_no_request_body_repeats(workload):
    bodies = [r[3] for r in _take(workload, 3, 0, n=300) if r[3] is not None]
    assert len(set(bodies)) == len(bodies)


def test_cold_configure_never_repeats_the_warm_up_dataset():
    workload = WORKLOADS["cold_configure"](3)
    seeds = {json.loads(r[3])["dataset"]["seed"] for r in _take("cold_configure", 3, 0)}
    assert workload._dataset(99_999)["seed"] not in seeds


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_ignores_empty_intervals():
    assert covered([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert covered([]) == 0


def test_self_time_subtracts_the_union_of_clipped_children():
    root = Span(1, 1, 0, "root", 0.0, 10.0, "r1")
    spans = [
        root,
        Span(1, 2, 1, "child", 1.0, 3.0),
        Span(1, 3, 1, "child", 2.0, 5.0),    # overlaps the first child
        Span(1, 4, 2, "grandchild", 1.5, 2.5),
        Span(1, 5, 1, "child", 9.0, 12.0),   # runs past its parent
    ]
    roots = link(spans, daemon_pid=1)
    assert roots == [root]
    assert root.self_time() == pytest.approx(10 - 4 - 1)
    assert spans[1].self_time() == pytest.approx(2 - 1)
    assert all(s.rid == "r1" for s in spans)
    totals = layer_totals(spans)
    assert totals["child"]["calls"] == 3
    assert totals["child"]["self_s"] == pytest.approx(1 + 3 + 3)


def test_worker_jobs_attach_to_the_run_that_contains_them():
    run = Span(1, 2, 1, "engine.run", 0.0, 10.0)
    spans = [
        Span(1, 1, 0, "app.dispatch", 0.0, 11.0, "r1"),
        run,
        Span(7, 9, 0, "engine.job", 1.0, 6.0),   # two workers in parallel
        Span(8, 9, 0, "engine.job", 2.0, 7.0),
        Span(7, 10, 9, "lppm.protect", 1.0, 2.0),
        Span(8, 3, 0, "engine.job", 20.0, 21.0),  # outside every run
    ]
    roots = link(spans, daemon_pid=1)
    assert {(s.pid, s.sid) for s in roots} == {(1, 1), (8, 3)}
    assert run.self_time() == pytest.approx(10 - 6)
    assert spans[4].rid == "r1"
    assert spans[5].rid is None


def test_recorder_nests_spans_and_round_trips_through_files(tmp_path):
    recorder = Recorder(tmp_path)
    inner = recorder.wrap("inner", lambda: None)
    outer = recorder.wrap("outer", lambda: inner())
    recorder.set_request_id("req-1")
    outer()
    recorder.flush()
    spans = load_spans(tmp_path)
    assert [s.name for s in spans] == ["inner", "outer"]
    link(spans, daemon_pid=spans[0].pid)
    inner_span, outer_span = spans
    assert outer_span.children == [inner_span]
    assert {s.rid for s in spans} == {"req-1"}
    assert outer_span.self_time() == pytest.approx(
        outer_span.duration - inner_span.duration)
