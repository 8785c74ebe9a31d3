"""Stay-point extraction from mobility traces.

A *stay point* is a maximal sub-sequence of a trace that remains within
a small roaming radius of its first record for at least a minimum dwell
time — the standard definition of Li et al. (GIS 2008) used by the
POI-mining literature the paper builds on.  Stay points are the raw
material the POI attack clusters into Points of Interest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..geo import LatLon, LocalProjection
from ..mobility import Trace

__all__ = ["StayPoint", "extract_stay_points"]

#: Records ahead of each anchor that the banded pass of
#: :func:`extract_stay_points` resolves in one vector pass per offset.
_BAND = 8


@dataclass(frozen=True)
class StayPoint:
    """One significant stop: where, when and for how long."""

    lat: float
    lon: float
    t_start_s: float
    t_end_s: float
    n_records: int

    @property
    def duration_s(self) -> float:
        """Dwell time of the stop."""
        return self.t_end_s - self.t_start_s

    @property
    def point(self) -> LatLon:
        """The stop centroid as a :class:`LatLon`."""
        return LatLon(self.lat, self.lon)


def extract_stay_points(
    trace: Trace,
    roam_m: float = 200.0,
    min_dwell_s: float = 900.0,
) -> List[StayPoint]:
    """Extract the stay points of ``trace``.

    Scans the trace with the classic anchor algorithm: from each anchor
    record, extend a window while records stay within ``roam_m`` of the
    anchor; if the window spans at least ``min_dwell_s``, its centroid
    becomes a stay point and scanning resumes after the window.

    The windows are found in two stages.  A banded pass first computes,
    for every anchor at once, the first record outside the radius among
    the next :data:`_BAND` records (one vector distance per offset), and
    tests the dwell of every window that ends inside the band as one
    vector expression.  On noisy traces — protected traces above all —
    most anchors are settled there: their window is a record or two and
    not a stay.  The anchor walk then visits only the anchors the band
    marked as stays and those whose window runs past the band; the
    latter extend it with a block scan that looks for the first outside
    record in geometrically growing blocks, so each costs work
    proportional to its *window*, not to the remaining trace.  Neither
    stage changes what is found, only how: the windows, their centroids
    and their timestamps are bit-identical to the full-suffix scan
    (``d2`` over ``x[i+1:]`` per anchor).

    Defaults (200 m, 15 min) follow the POI-mining literature the
    paper's privacy metric relies on.
    """
    if roam_m <= 0 or min_dwell_s <= 0:
        raise ValueError("roaming radius and minimum dwell must be positive")
    n = len(trace)
    if n < 2:
        return []

    projection = LocalProjection.for_data(trace.lats, trace.lons)
    x, y = projection.to_xy(trace.lats, trace.lons)
    times = trace.times_s
    roam2 = roam_m**2

    # Banded pass: first[i] is the offset of the first record outside
    # the radius of anchor i within the band, 0 when the band has none.
    band = min(_BAND, n - 1)
    first = np.zeros(n, dtype=np.intp)
    for k in range(band, 0, -1):
        d2 = (x[k:] - x[:-k]) ** 2 + (y[k:] - y[:-k]) ** 2
        first[: n - k][d2 > roam2] = k
    anchors = np.arange(n)
    # An anchor whose band reaches the last record and stays inside
    # has its window end at n; any other empty band is unresolved.
    ends = np.where(first > 0, anchors + first, n)
    unresolved = (first == 0) & (anchors + band < n - 1)
    is_stay = times[ends - 1] - times >= min_dwell_s
    visit = np.flatnonzero((is_stay | unresolved)[: n - 1]).tolist()
    ends_of = ends.tolist()
    unresolved_of = unresolved.tolist()

    stays: List[StayPoint] = []
    i = 0
    for a in visit:
        if a < i:
            continue  # inside the window of the previous stay
        if unresolved_of[a]:
            j = _first_outside(x, y, a, a + band + 1, roam2)
            if not times[j - 1] - times[a] >= min_dwell_s:
                continue
        else:
            j = ends_of[a]
        # Window is records a .. j-1 inclusive.
        sl = slice(a, j)
        cx, cy = float(np.mean(x[sl])), float(np.mean(y[sl]))
        centre = projection.point_to_latlon(cx, cy)
        stays.append(
            StayPoint(
                lat=centre.lat,
                lon=centre.lon,
                t_start_s=float(times[a]),
                t_end_s=float(times[j - 1]),
                n_records=j - a,
            )
        )
        i = j
    return stays


def _first_outside(x, y, i: int, lo: int, roam2: float) -> int:
    """Index of the first record at or after ``lo`` outside the radius
    of anchor ``i`` (``len(x)`` when none is), scanning ahead in
    geometrically growing blocks and stopping at the first hit."""
    n = len(x)
    xi, yi = x[i], y[i]
    block = 64
    while lo < n:
        hi = min(n, lo + block)
        d2 = (x[lo:hi] - xi) ** 2 + (y[lo:hi] - yi) ** 2
        outside = np.nonzero(d2 > roam2)[0]
        if outside.size:
            return lo + int(outside[0])
        lo = hi
        block *= 2
    return n
