"""The three workloads: seeded request streams, warm-up and correctness checks.

Each workload turns ``--seed`` into one deterministic request stream per
connection (the daemon receives only these requests), warms the daemon
up before timing starts, checks every reply while the loop runs and
verifies sampled replies against the library in process after the
daemon has stopped.  Every workload is a closed loop.
"""

from __future__ import annotations

import gzip
import json
import random
import threading
from typing import Dict, Iterator, List, Tuple

from loadgen import Connection, LoopResult, Reply, Req

#: Sweep resolution of every fit: 10 points x 2 replications = 20
#: protect + measure executions per cold fit.
POINTS, REPLICATIONS = 10, 2
EXECUTIONS_PER_FIT = POINTS * REPLICATIONS
POLICIES = ("max_utility", "max_privacy", "midpoint")


def _encode(body: dict) -> bytes:
    return json.dumps(body).encode("utf-8")


def _decode(reply: Reply) -> dict:
    raw = reply.body
    if reply.headers.get("Content-Encoding") == "gzip":
        raw = gzip.decompress(raw)
    return json.loads(raw)


def _fit_body(dataset: dict) -> dict:
    return {"dataset": dataset, "points": POINTS, "replications": REPLICATIONS}


class Workload:
    """Base: one request stream per connection, checks, and verification."""

    name = ""
    connections = 1
    #: Quantile reported as ``tail_ms``: the highest of p99/p90/p75 that
    #: leaves at least ten samples beyond it in one run of the workload.
    tail_q = 0.99
    #: Reply kind the latency metrics cover (``None``: every request).
    latency_kind = None
    #: What throughput_per_s, p50_ms and tail_ms are called here.
    headline = ("", "", "")

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self._lock = threading.Lock()

    def requests(self, index: int) -> Iterator[Req]:
        raise NotImplementedError

    def warm_up(self, port: int) -> None:
        """Requests sent after boot and before timing (part of set-up)."""
        raise NotImplementedError

    def check(self, req: Req, reply: Reply) -> bool:
        """Validate one 2xx reply while the loop runs."""
        raise NotImplementedError

    def verify(self, cache_dir) -> Tuple[int, int]:
        """In-process checks after the daemon stopped: (checked, failed)."""
        raise NotImplementedError

    def throughput(self, loop: LoopResult, delta: dict) -> float:
        raise NotImplementedError

    def executions_expected(self, loop: LoopResult) -> int:
        """Protect + measure executions the measured requests must add."""
        return 0

    def invariant_errors(self, loop: LoopResult, delta: dict) -> List[str]:
        """Counter invariants between the ``GET /metrics`` snapshots."""
        grown, expected = delta["engine"]["executions"], self.executions_expected(loop)
        if grown != expected:
            return [f"engine.executions grew by {grown}, expected {expected}"]
        return []

    @staticmethod
    def _must(conn: Connection, req: Req) -> Reply:
        reply = conn.send(req)
        if not 200 <= reply.status < 300:
            raise RuntimeError(
                f"warm-up {req.method} {req.path} answered {reply.status}"
            )
        return reply


class WarmQuery(Workload):
    """Read path: resident models, exact repeats, objective queries, probes."""

    name = "warm_query"
    connections = 2
    tail_q = 0.99
    headline = ("query_rps", "query_p50_ms", "query_p99_ms")
    RESIDENT = (
        {"workload": "taxi", "users": 8, "seed": 11},
        {"workload": "taxi", "users": 16, "seed": 12},
        {"workload": "commuters", "users": 8, "seed": 13},
    )
    #: Every SAMPLE_EVERY-th objective query per connection is checked
    #: against an in-process Configurator.recommend after the run.
    SAMPLE_EVERY = 20

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        fixed = [{"kind": "privacy", "op": "<=", "target": 0.1},
                 {"kind": "utility", "op": ">=", "target": 0.8}]
        self.pool: List[Req] = []
        for dataset in self.RESIDENT:
            for endpoint in ("sweep", "configure", "recommend"):
                body = _fit_body(dataset)
                if endpoint == "recommend":
                    body["objectives"] = fixed
                self.pool.append(Req("repeat", "POST", f"/{endpoint}",
                                     _encode(body), meta=len(self.pool)))
        self.reference: Dict[int, bytes] = {}
        self.samples: List[tuple] = []

    def requests(self, index: int) -> Iterator[Req]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        queries = 0
        while True:
            draw = rng.random()
            if draw < 0.5:
                dataset = rng.randrange(len(self.RESIDENT))
                objectives = [
                    {"kind": "privacy", "op": "<=", "target": rng.uniform(0.02, 0.5)},
                    {"kind": "utility", "op": ">=", "target": rng.uniform(0.2, 0.9)},
                ]
                policy = rng.choice(POLICIES)
                body = dict(_fit_body(self.RESIDENT[dataset]),
                            objectives=objectives, policy=policy)
                sampled = queries % self.SAMPLE_EVERY == 0
                queries += 1
                yield Req("recommend", "POST", "/recommend", _encode(body),
                          meta=(dataset, objectives, policy) if sampled else None)
            elif draw < 0.9:
                yield self.pool[rng.randrange(len(self.pool))]
            else:
                yield Req("healthz", "GET", "/healthz")

    def warm_up(self, port: int) -> None:
        conn = Connection(port)
        try:
            for dataset in self.RESIDENT:
                self._must(conn, Req("fit", "POST", "/configure",
                                     _encode(_fit_body(dataset))))
            for req in self.pool:
                self._must(conn, req)
            # The reference answer of each repeated body is its first
            # replay; the replies that follow must equal it byte for byte.
            for req in self.pool:
                reply = self._must(conn, req)
                if reply.headers.get("X-Response-Cache") != "hit":
                    raise RuntimeError(f"{req.path} repeat missed the response cache")
                self.reference[req.meta] = reply.body
        finally:
            conn.close()

    def check(self, req: Req, reply: Reply) -> bool:
        if req.kind == "repeat":
            return reply.body == self.reference[req.meta]
        body = _decode(reply)
        if req.kind == "healthz":
            return body.get("status") == "ok"
        if body["engine"]["executions_this_request"] != 0:
            return False
        if req.meta is not None:
            with self._lock:
                self.samples.append((req.meta, body["recommendation"]))
        return True

    def verify(self, cache_dir) -> Tuple[int, int]:
        """Sampled objective answers against an in-process Configurator.

        The in-process engine reads the daemon's disk tier, so the fit
        re-uses the daemon's evaluations and checks the model and the
        recommendation logic, not the protect + measure runs.
        """
        from repro.engine import EvaluationEngine
        from repro.framework import Configurator, Objective, geo_ind_system

        engine = EvaluationEngine(engine="serial", cache_dir=cache_dir)
        configurators = {}
        failures = 0
        for (dataset, objectives, policy), answer in self.samples:
            if dataset not in configurators:
                configurators[dataset] = Configurator(
                    geo_ind_system(), resolve(self.RESIDENT[dataset]),
                    n_points=POINTS, n_replications=REPLICATIONS, engine=engine,
                )
                configurators[dataset].fit()
            rec = configurators[dataset].recommend(
                [Objective(o["kind"], o["op"], o["target"]) for o in objectives],
                policy=policy,
            )
            expected = {
                "param": rec.param_name, "value": rec.value,
                "feasible": rec.feasible, "interval": list(rec.interval),
                "predicted_privacy": rec.predicted_privacy,
                "predicted_utility": rec.predicted_utility, "notes": rec.notes,
            }
            failures += json.loads(json.dumps(expected)) != answer
        return len(self.samples), failures

    def throughput(self, loop: LoopResult, delta: dict) -> float:
        return len(loop.latencies()) / loop.elapsed_s


class ColdConfigure(Workload):
    """Compute path: every request fits a never-seen synthetic dataset."""

    name = "cold_configure"
    connections = 1
    #: A 30 s run completes about 50 fits, too few for a p90 with ten
    #: samples beyond it.
    tail_q = 0.75
    latency_kind = "configure"
    headline = ("evaluations_per_s", "configure_p50_ms", "configure_p75_ms")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._base = 100_000 * (self.seed % 10_000 + 1)
        self.samples: List[tuple] = []

    def _dataset(self, k: int) -> dict:
        return {"workload": "taxi", "users": 8, "seed": self._base + k}

    def requests(self, index: int) -> Iterator[Req]:
        k = 0
        while True:
            yield Req("configure", "POST", "/configure",
                      _encode(_fit_body(self._dataset(k))), meta=k)
            k += 1

    def warm_up(self, port: int) -> None:
        # Starts the engine's worker pool; the seed is outside the
        # measured range, so no measured request repeats it.
        conn = Connection(port)
        try:
            self._must(conn, Req("fit", "POST", "/configure",
                                 _encode(_fit_body(self._dataset(99_999)))))
        finally:
            conn.close()

    def check(self, req: Req, reply: Reply) -> bool:
        body = _decode(reply)
        if body["engine"]["executions_this_request"] != EXECUTIONS_PER_FIT:
            return False
        if req.meta == 0:
            with self._lock:
                self.samples.append((self._dataset(req.meta), body["model"]))
        return True

    def verify(self, cache_dir) -> Tuple[int, int]:
        """Sampled models against a fresh in-process library fit."""
        from repro.engine import EvaluationEngine
        from repro.framework import Configurator, geo_ind_system

        failures = 0
        engine = EvaluationEngine()
        try:
            for dataset, answer in self.samples:
                model = Configurator(
                    geo_ind_system(), resolve(dataset), n_points=POINTS,
                    n_replications=REPLICATIONS, engine=engine,
                ).fit()
                a, b, alpha, beta = model.coefficients
                expected = {
                    "coefficients": {"a": a, "b": b, "alpha": alpha, "beta": beta},
                    "privacy_r2": model.privacy.r2, "utility_r2": model.utility.r2,
                    "domain": list(model.domain()),
                }
                got = {
                    "coefficients": answer["coefficients"],
                    "privacy_r2": answer["privacy_fit"]["r2"],
                    "utility_r2": answer["utility_fit"]["r2"],
                    "domain": answer["domain"],
                }
                failures += json.loads(json.dumps(expected)) != got
        finally:
            engine.close()
        return len(self.samples), failures

    def throughput(self, loop: LoopResult, delta: dict) -> float:
        return delta["engine"]["executions"] / loop.elapsed_s

    def executions_expected(self, loop: LoopResult) -> int:
        return EXECUTIONS_PER_FIT * len(loop.samples)


class StreamIngest(Workload):
    """Write path: random-walk chunks into live sessions, gzip replies."""

    name = "stream_ingest"
    connections = 2
    #: A 30 s run sends about 900 chunks, too few for a p99 with ten
    #: samples beyond it.
    tail_q = 0.9
    latency_kind = "chunk"
    headline = ("stream_records_per_s", "chunk_p50_ms", "chunk_p90_ms")
    RECORDS_PER_CHUNK = 200
    CHUNKS_PER_SESSION = 10
    METRICS_EVERY = 4
    LPPM, PARAM = "geo_ind", 0.01

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: session name -> {"seed", "records", "released", "closed"}
        self.sessions: Dict[str, dict] = {}

    def requests(self, index: int) -> Iterator[Req]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        gzip_ok = {"Accept-Encoding": "gzip"}
        k = 0
        while True:
            name = f"s{self.seed}-{index}-{k}"
            session_seed = rng.randrange(1 << 30)
            t = 1.6e9 + rng.uniform(0.0, 86_400.0)
            lat = 37.70 + rng.uniform(0.0, 0.1)
            lon = -122.50 + rng.uniform(0.0, 0.1)
            for chunk in range(self.CHUNKS_PER_SESSION):
                records = []
                for _ in range(self.RECORDS_PER_CHUNK):
                    t += rng.uniform(5.0, 30.0)
                    lat += rng.gauss(0.0, 3e-4)
                    lon += rng.gauss(0.0, 3e-4)
                    records.append([round(t, 3), round(lat, 6), round(lon, 6)])
                body = {"records": records, "lppm": self.LPPM, "param": self.PARAM,
                        "seed": session_seed, "user": name}
                yield Req("chunk", "POST", f"/stream/{name}", _encode(body),
                          headers=gzip_ok, meta=(name, session_seed, records))
                if (chunk + 1) % self.METRICS_EVERY == 0:
                    yield Req("metrics", "GET", f"/stream/{name}/metrics",
                              headers=gzip_ok, meta=(name, (chunk + 1) * len(records)))
            yield Req("close", "DELETE", f"/stream/{name}", headers=gzip_ok,
                      meta=(name, self.CHUNKS_PER_SESSION * self.RECORDS_PER_CHUNK))
            k += 1

    def warm_up(self, port: int) -> None:
        # One short session outside the measured names loads the online
        # protection and window-metric code paths before timing.
        conn = Connection(port)
        name, records = f"warm-up-{self.seed}", [[1.6e9, 37.75, -122.45]]
        try:
            self._must(conn, Req("chunk", "POST", f"/stream/{name}", _encode(
                {"records": records, "lppm": self.LPPM, "param": self.PARAM})))
            self._must(conn, Req("metrics", "GET", f"/stream/{name}/metrics"))
            self._must(conn, Req("close", "DELETE", f"/stream/{name}"))
        finally:
            conn.close()

    def check(self, req: Req, reply: Reply) -> bool:
        body = _decode(reply)
        if req.kind == "chunk":
            name, session_seed, records = req.meta
            released = body["released"]
            if body["accepted"] != len(records) or len(released) != len(records):
                return False
            with self._lock:
                session = self.sessions.setdefault(name, {
                    "seed": session_seed, "records": [], "released": [],
                    "closed": False,
                })
                session["records"].extend(records)
                session["released"].extend(released)
            return True
        name, pushed = req.meta
        if req.kind == "metrics":
            return body["updates"] == pushed
        with self._lock:
            self.sessions[name]["closed"] = True
        return body["closed"] is True and body["final"]["updates"] == pushed

    def verify(self, cache_dir) -> Tuple[int, int]:
        """Every closed session's releases against an online replay."""
        from repro.lppm import lppm_class, primary_param

        closed = [(name, s) for name, s in self.sessions.items() if s["closed"]]
        failures = 0
        for name, session in closed:
            lppm = lppm_class(self.LPPM)(**{primary_param(self.LPPM): self.PARAM})
            replay = lppm.protect_online(seed=session["seed"], user=name)
            expected = []
            for t, lat, lon in session["records"]:
                out = replay.push(t, lat, lon)
                expected.append(None if out is None else list(out))
            failures += json.loads(json.dumps(expected)) != session["released"]
        return len(closed), failures

    def throughput(self, loop: LoopResult, delta: dict) -> float:
        return self.RECORDS_PER_CHUNK * len(loop.latencies("chunk")) / loop.elapsed_s

    def invariant_errors(self, loop: LoopResult, delta: dict) -> List[str]:
        errors = super().invariant_errors(loop, delta)
        updates = delta["streaming"]["updates_total"]
        pushed = self.RECORDS_PER_CHUNK * len(loop.latencies("chunk"))
        if updates != pushed:
            errors.append(f"streaming.updates_total grew by {updates}, expected {pushed}")
        return errors


WORKLOADS = {cls.name: cls for cls in (WarmQuery, ColdConfigure, StreamIngest)}


def resolve(dataset: dict):
    """The synthetic dataset a ``workload`` spec names, built in process."""
    from repro.synth import (CommuterConfig, TaxiFleetConfig, generate_commuters,
                             generate_taxi_fleet)

    if dataset["workload"] == "taxi":
        return generate_taxi_fleet(
            TaxiFleetConfig(n_cabs=dataset["users"], seed=dataset["seed"]))
    return generate_commuters(
        CommuterConfig(n_users=dataset["users"], seed=dataset["seed"]))
