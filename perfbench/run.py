"""The repository benchmark: the real daemon under keep-alive closed-loop load.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload warm_query --seed 1 --seconds 30 --trace 0

``--trace 0`` boots ``python -m repro.cli serve --port 0 --cache-dir
<fresh empty dir>`` (every other flag at its default), warms it up,
drives it for ``--seconds`` from one load-generator process over
persistent ``http.client`` connections, checks every reply, verifies
sampled replies against the library in process, and reports the
end-to-end metrics.  ``--trace 1`` runs the workload twice for half the
time each, untraced and then under ``traced_serve.py``, and reports the
per-layer metrics of the traced run plus the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Human-readable lines above it name every
metric with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from daemon import Daemon  # noqa: E402
from loadgen import LoopResult, closed_loop, tail  # noqa: E402
from spans import layer_totals, link, load_spans  # noqa: E402
from traced_serve import HANDLER_SPANS  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

#: Daemon boots per untraced run; ``setup_s`` takes their median.
BOOTS = 5


@dataclass
class Segment:
    """One daemon's measured run."""

    workload: Workload
    loop: LoopResult
    boots: List[float]
    warm_up_s: float
    #: Counter growth between the ``GET /metrics`` snapshots around the loop.
    delta: dict
    rss_peak_mb: float
    verify_failures: int
    invariant_errors: List[str]
    daemon_pid: int

    @property
    def setup_s(self) -> float:
        return statistics.median(self.boots) + self.warm_up_s

    @property
    def failed(self) -> int:
        return self.loop.failed + self.verify_failures

    def latencies(self) -> List[float]:
        return self.loop.latencies(self.workload.latency_kind)


def _diff(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0) for k, v in after.items()
            if isinstance(v, (int, float)) and not isinstance(v, bool)}


def run_segment(root: Path, work: Path, workload: Workload, seconds: float,
                boots: int, trace_dir: Optional[Path] = None) -> Segment:
    """Boot (``boots`` times), warm up, drive, snapshot, stop, verify."""
    boot_times = []
    for i in range(boots - 1):
        spare = Daemon(root, work / f"boot-{i}")
        try:
            boot_times.append(spare.start())
        finally:
            spare.stop()
    daemon = Daemon(root, work / "daemon", trace_dir)
    try:
        boot_times.append(daemon.start())
        started = time.perf_counter()
        workload.warm_up(daemon.port)
        warm_up_s = time.perf_counter() - started
        before = daemon.metrics()
        loop = closed_loop(
            daemon.port,
            [workload.requests(i) for i in range(workload.connections)],
            workload.check, seconds,
        )
        after = daemon.metrics()
        rss = daemon.rss_peak_mb()
        pid = daemon.proc.pid
    finally:
        daemon.stop()
    delta = {block: _diff(before[block], after[block])
             for block in ("engine", "response_cache", "streaming")}
    errors = workload.invariant_errors(loop, delta)
    started = time.perf_counter()
    verified, verify_failures = workload.verify(daemon.cache_dir)
    print(f"{workload.name}: verified {verified} sampled replies in process "
          f"({verify_failures} mismatched) in {time.perf_counter() - started:.2f} s")
    if verified == 0:
        errors.append("no reply was sampled for in-process verification")
    return Segment(workload, loop, boot_times, warm_up_s, delta, rss,
                   verify_failures, errors, pid)


E2E_UNITS = {"setup_s": "s", "rss_peak_mb": "MiB", "throughput_per_s": "1/s",
             "p50_ms": "ms", "tail_ms": "ms"}


def report_end_to_end(segment: Segment) -> Dict[str, dict]:
    """Print the end-to-end metrics by name and unit; return them."""
    workload = segment.workload
    latencies = segment.latencies()
    tail_s, q, beyond = tail(latencies, workload.tail_q)
    values = {
        "setup_s": segment.setup_s,
        "rss_peak_mb": segment.rss_peak_mb,
        "throughput_per_s": workload.throughput(segment.loop, segment.delta),
        "p50_ms": statistics.median(latencies) * 1e3,
        "tail_ms": tail_s * 1e3,
    }
    rate, p50, ptail = workload.headline
    attempted = len(segment.loop.samples)
    print(f"workload {workload.name}: {attempted} requests over "
          f"{segment.loop.elapsed_s:.2f} s on {workload.connections} "
          "keep-alive connection(s)")
    print(f"  setup_s = {values['setup_s']:.4f} s  (median boot of "
          f"{len(segment.boots)} + warm-up {segment.warm_up_s:.3f} s)")
    print(f"  rss_peak_mb = {values['rss_peak_mb']:.2f} MiB")
    print(f"  error_rate = {segment.failed / attempted:.6f}  "
          f"({segment.failed} failed of {attempted})")
    print(f"  throughput_per_s = {rate} = {values['throughput_per_s']:.3f} 1/s")
    print(f"  p50_ms = {p50} = {values['p50_ms']:.3f} ms  (n={len(latencies)})")
    note = "" if q == workload.tail_q else (
        f"; p{workload.tail_q * 100:g} leaves fewer than 10, so p{q * 100:.4g}")
    print(f"  tail_ms = {ptail} = {values['tail_ms']:.3f} ms  "
          f"(n={len(latencies)}, {beyond} samples beyond{note})")
    print(f"  repeat_share = {repeat_share(segment.loop):.4f}")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}


def repeat_share(loop: LoopResult) -> float:
    """Share of requests whose body exactly repeats an earlier one."""
    return sum(1 for s in loop.samples if s.kind == "repeat") / len(loop.samples)


# ----------------------------------------------------------------------
# Per-layer metrics from the traced run
# ----------------------------------------------------------------------
MIDDLEWARE = ("request_id", "compression", "logging", "metrics", "error_boundary",
              "auth", "rate_limit", "load_shed", "deadline", "validation",
              "response_cache")

#: Per-layer metric -> (span name, statistic, scale, unit).  ``self``
#: is mean self time per call, ``total`` mean duration per call.
SPAN_METRICS = {
    **{f"middleware.{m}.self_us": (f"middleware.{m}", "self", 1e6, "us")
       for m in MIDDLEWARE},
    **{f"{span}.self_ms": (span, "self", 1e3, "ms") for span in HANDLER_SPANS.values()},
    "state.dataset_for_ms": ("state.dataset_for", "total", 1e3, "ms"),
    "state.configurator_for_ms": ("state.configurator_for", "total", 1e3, "ms"),
    "synth.generate_ms": ("synth.generate", "total", 1e3, "ms"),
    "engine.run.self_ms": ("engine.run", "self", 1e3, "ms"),
    "lppm.protect_ms": ("lppm.protect", "self", 1e3, "ms"),
    "lppm.online_push_us": ("lppm.online_push", "self", 1e6, "us"),
    "metrics.privacy_ms": ("metrics.privacy", "self", 1e3, "ms"),
    "metrics.utility_ms": ("metrics.utility", "self", 1e3, "ms"),
    "attacks.stay_points_ms": ("attacks.stay_points", "self", 1e3, "ms"),
    "analysis.compute_ms": ("analysis.compute", "total", 1e3, "ms"),
    "framework.fit_ms": ("framework.fit", "self", 1e3, "ms"),
    "framework.recommend_us": ("framework.recommend", "self", 1e6, "us"),
    "streaming.update_ms": ("streaming.update", "self", 1e3, "ms"),
    "streaming.window_metrics_ms": ("streaming.window_metrics", "self", 1e3, "ms"),
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(traced: Segment, untraced: Segment, trace_dir: Path) -> Dict[str, dict]:
    manifest = json.loads((trace_dir / "wrapped.json").read_text())
    spans = load_spans(trace_dir)
    link(spans, traced.daemon_pid)
    measured = {s.request_id for s in traced.loop.samples if s.request_id}
    spans = [s for s in spans if s.rid in measured]
    totals = layer_totals(spans)
    worker_pids = {s.pid for s in spans if s.pid != traced.daemon_pid}

    out: Dict[str, dict] = {}

    def put(name, value, unit):
        out[name] = {"value": float(value), "unit": unit}

    dispatch = {s.rid: s.duration for s in spans if s.name == "app.dispatch"}
    transport = [s.latency_s - dispatch[s.request_id] for s in traced.loop.samples
                 if s.ok and s.request_id in dispatch]
    put("app.transport_ms", statistics.median(transport) * 1e3 if transport else 0.0, "ms")
    for metric, (span, stat, scale, unit) in SPAN_METRICS.items():
        row = totals.get(span)
        value = row[f"{stat}_s"] / row["calls"] * scale if row else 0.0
        put(metric, value, unit)

    def calls(span):
        return totals.get(span, {}).get("calls", 0)

    delta = traced.delta
    put("middleware.response_cache.hit_ratio",
        _ratio(delta["response_cache"]["hits"],
               delta["response_cache"]["hits"] + delta["response_cache"]["misses"]),
        "ratio")
    put("middleware.response_cache.hits", delta["response_cache"]["hits"], "count")
    put("state.dataset_registry.hit_ratio",
        1 - _ratio(calls("state.resolve_dataset"), calls("state.dataset_for"))
        if calls("state.dataset_for") else 0.0, "ratio")
    put("state.configurator.hit_ratio",
        1 - _ratio(calls("framework.fit"), calls("state.configurator_for"))
        if calls("state.configurator_for") else 0.0, "ratio")
    put("engine.executions", delta["engine"]["executions"], "count")
    put("engine.result_cache.hit_ratio",
        _ratio(delta["engine"]["hits"], delta["engine"]["hits"] + delta["engine"]["misses"]),
        "ratio")
    put("analysis.lookups", calls("analysis.lookup") / len(measured), "1/req")
    put("analysis.hit_ratio",
        1 - _ratio(calls("analysis.compute"), calls("analysis.lookup"))
        if calls("analysis.lookup") else 0.0, "ratio")
    put("streaming.updates", delta["streaming"]["updates_total"], "count")
    put("streaming.sessions_opened", delta["streaming"]["sessions_opened"], "count")
    plain_p50 = statistics.median(untraced.latencies())
    traced_p50 = statistics.median(traced.latencies())
    put("trace.overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0, "%")

    print(f"per-layer metrics of {traced.workload.name} (traced run, "
          f"{len(spans)} spans from {len(measured)} measured requests; "
          f"repeat share {repeat_share(traced.loop):.4f}):")
    if calls("engine.run"):
        print(f"  lppm, metrics, attacks and analysis inside engine.run are split: "
              f"spans collected from {len(worker_pids)} pool-worker process(es)")
    for name, metric in out.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for gap in manifest["missing"]:
        print(f"  not split: {gap['span']} (no {gap['target']} to wrap)")
    print("  a layer that did no work in this workload reads 0")
    return out


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print("error: run from the root of a checkout (no src/repro/cli.py here)",
              file=sys.stderr)
        return 2
    # The in-process checks import the library from this checkout.
    sys.path.insert(0, str(root / "src"))
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload]
        if args.trace:
            half = args.seconds / 2
            untraced = run_segment(root, work / "plain", workload(args.seed), half, 1)
            trace_dir = work / "spans"
            traced = run_segment(root, work / "traced", workload(args.seed), half, 1,
                                 trace_dir=trace_dir)
            segments = [untraced, traced]
            metrics = per_layer(traced, untraced, trace_dir)
        else:
            segment = run_segment(root, work, workload(args.seed), args.seconds, BOOTS)
            segments = [segment]
            metrics = report_end_to_end(segment)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = [e for s in segments for e in s.invariant_errors]
    for error in errors:
        print(f"invariant violated: {error}")
    failed = sum(s.failed for s in segments)
    attempted = sum(len(s.loop.samples) for s in segments)
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
