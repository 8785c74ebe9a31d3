"""Closed-loop load over persistent ``http.client`` keep-alive connections.

Every connection is driven by one thread of this process: it sends its
next generated request only after the previous reply has been read in
full, the way an SDK, a CI pipeline or a stream gateway waits for its
answer.  Latency is timed from just before the request is written to
just after the last byte of the reply is read; building the request
body and checking the reply happen outside that interval.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: A request that takes longer than this is a failure (and the
#: connection is replaced).
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Req:
    """One generated request; ``kind`` groups latencies for reporting."""

    kind: str
    method: str
    path: str
    body: Optional[bytes] = None
    headers: Dict[str, str] = field(default_factory=dict)
    #: Workload data the reply check needs (never sent).
    meta: object = None


@dataclass
class Reply:
    status: int
    headers: Dict[str, str]
    body: bytes
    latency_s: float


class Connection:
    """One keep-alive connection; reconnects after a transport error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: Optional[http.client.HTTPConnection] = None

    def send(self, req: Req) -> Reply:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S
            )
        headers = dict(req.headers)
        if req.body is not None:
            headers["Content-Type"] = "application/json"
        start = time.perf_counter()
        try:
            self._conn.request(req.method, req.path, body=req.body, headers=headers)
            response = self._conn.getresponse()
            body = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return Reply(0, {}, b"", time.perf_counter() - start)
        latency = time.perf_counter() - start
        if response.will_close:
            self.close()
        return Reply(response.status, dict(response.getheaders()), body, latency)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Sample:
    kind: str
    latency_s: float
    ok: bool
    request_id: Optional[str]


@dataclass
class LoopResult:
    samples: List[Sample]
    elapsed_s: float

    def latencies(self, kind: Optional[str] = None) -> List[float]:
        return [s.latency_s for s in self.samples
                if s.ok and (kind is None or s.kind == kind)]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)


def closed_loop(
    port: int,
    streams: Sequence[Iterator[Req]],
    check: Callable[[Req, Reply], bool],
    seconds: float,
) -> LoopResult:
    """Drive one connection per request stream until ``seconds`` pass.

    A request in flight at the deadline is finished and counted; the
    elapsed time runs until the last connection is done.  ``check``
    validates each reply (any non-2xx or failed check is a failure).
    """
    per_thread: List[List[Sample]] = [[] for _ in streams]
    start = time.perf_counter()
    deadline = start + seconds

    def drive(index: int) -> None:
        conn = Connection(port)
        out = per_thread[index]
        try:
            for req in streams[index]:
                if time.perf_counter() >= deadline:
                    break
                reply = conn.send(req)
                try:
                    ok = 200 <= reply.status < 300 and check(req, reply)
                except (ValueError, KeyError, TypeError, OSError):
                    # An unparsable or malformed reply is a failed check.
                    ok = False
                out.append(Sample(req.kind, reply.latency_s, ok,
                                  reply.headers.get("X-Request-Id")))
        finally:
            conn.close()

    threads = [threading.Thread(target=drive, args=(i,), daemon=True)
               for i in range(len(streams))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(seconds + 2 * REQUEST_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a load-generator connection did not finish")
    elapsed = time.perf_counter() - start
    return LoopResult([s for samples in per_thread for s in samples], elapsed)


def percentile(samples: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-quantile and how many samples lie beyond it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def tail(samples: Sequence[float], q: float, min_beyond: int = 10) -> Tuple[float, float, int]:
    """A tail quantile with at least ``min_beyond`` samples beyond it.

    Returns ``(value, quantile, beyond)``: the ``q``-quantile when the
    sample leaves ``min_beyond`` samples beyond it, otherwise the
    highest quantile that does (a short or slow run), so the reported
    tail never rests on fewer than ``min_beyond`` samples.
    """
    value, beyond = percentile(samples, q)
    if beyond >= min_beyond:
        return value, q, beyond
    n = len(samples)
    if n <= min_beyond:
        raise ValueError(f"{n} samples cannot leave {min_beyond} beyond any quantile")
    rank = n - min_beyond
    return sorted(samples)[rank - 1], rank / n, min_beyond
