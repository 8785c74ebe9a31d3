"""POI-based re-identification attack.

Beyond the paper's POI-retrieval metric, a natural stronger adversary
links *anonymised* protected traces back to known users by comparing
POI fingerprints (the approach of AP-Attack-style de-anonymisers from
the same research group).  This module implements that attack so the
library can expose re-identification rate as an alternative privacy
metric — exercising the framework's claim of metric modularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..analysis import pois_of
from ..geo import haversine_m_arrays
from ..mobility import Dataset
from .matching import poi_distance_matrix
from .poi import Poi, PoiExtractionConfig

__all__ = ["fingerprint_distance_m", "ReidentificationResult", "reidentify"]

#: Distance assigned when one side has no POIs at all (effectively inf).
_NO_POI_PENALTY_M = 1.0e7


def fingerprint_distance_m(a: Sequence[Poi], b: Sequence[Poi]) -> float:
    """Symmetric mean nearest-neighbour distance between POI sets.

    Small when the two sets describe the same places.  Dwell-weighted on
    each side so a user's dominant places (home, work) count most.
    """
    if not a or not b:
        return _NO_POI_PENALTY_M
    d = poi_distance_matrix(a, b)
    w_a = np.asarray([max(p.total_dwell_s, 1.0) for p in a])
    w_b = np.asarray([max(p.total_dwell_s, 1.0) for p in b])
    forward = float(np.average(np.min(d, axis=1), weights=w_a))
    backward = float(np.average(np.min(d, axis=0), weights=w_b))
    return (forward + backward) / 2.0


class _Fingerprints:
    """Several POI sets stacked into one array per field.

    :meth:`distances_to` is :func:`fingerprint_distance_m` from every
    set to one other set, bit for bit, with one distance matrix for all
    of them instead of one per pair: the matrix entries, the minima and
    the products are elementwise, and each set's weighted sums still
    reduce the same contiguous run of values as ``np.average`` (which
    is ``(x * w).sum() / w.sum()`` for float64 arrays).
    """

    def __init__(self, prints: Sequence[Sequence[Poi]]) -> None:
        self.n = len(prints)
        #: Indices of the non-empty sets, and their row bounds.
        self.present = [k for k, pois in enumerate(prints) if pois]
        sizes = [len(prints[k]) for k in self.present]
        self.bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        pois = [p for k in self.present for p in prints[k]]
        self.lats = np.asarray([p.lat for p in pois])
        self.lons = np.asarray([p.lon for p in pois])
        self.weights = np.asarray([max(p.total_dwell_s, 1.0) for p in pois])
        self.weight_sums = [
            self.weights[s:e].sum()
            for s, e in zip(self.bounds[:-1], self.bounds[1:])
        ]

    def distances_to(self, found: Sequence[Poi]) -> List[float]:
        distances = [_NO_POI_PENALTY_M] * self.n
        if not found or not self.present:
            return distances
        f_lat = np.asarray([p.lat for p in found])
        f_lon = np.asarray([p.lon for p in found])
        w_b = np.asarray([max(p.total_dwell_s, 1.0) for p in found])
        sum_b = w_b.sum()
        d = haversine_m_arrays(
            self.lats[:, None], self.lons[:, None],
            f_lat[None, :], f_lon[None, :],
        )
        forward_terms = np.min(d, axis=1) * self.weights
        column_mins = np.minimum.reduceat(d, self.bounds[:-1], axis=0)
        for row, k in enumerate(self.present):
            s, e = self.bounds[row], self.bounds[row + 1]
            forward = float(forward_terms[s:e].sum() / self.weight_sums[row])
            backward = float((column_mins[row] * w_b).sum() / sum_b)
            distances[k] = (forward + backward) / 2.0
        return distances


@dataclass(frozen=True)
class ReidentificationResult:
    """Outcome of the linking attack."""

    assignment: Dict[str, str]
    n_correct: int
    n_total: int

    @property
    def rate(self) -> float:
        """Fraction of protected traces correctly linked."""
        return self.n_correct / self.n_total if self.n_total else 0.0


def reidentify(
    actual: Dataset,
    protected: Dataset,
    config: PoiExtractionConfig = PoiExtractionConfig(),
) -> ReidentificationResult:
    """Link every protected trace to its most likely actual user.

    The adversary knows each actual user's POI fingerprint (background
    knowledge) and sees the protected traces stripped of identity; each
    protected trace is assigned to the actual user whose fingerprint is
    nearest.  Ties break towards the lexicographically first user so
    the attack is deterministic.

    POI extraction on both sides goes through the analysis cache: the
    actual-side fingerprints — identical for every sweep point — are
    computed once per dataset per process, leaving only the protected
    extraction and the linking itself as per-execution work.  The
    linking scores each protected trace against every fingerprint in
    one pass (see :class:`_Fingerprints`).
    """
    actual_prints: Dict[str, Sequence[Poi]] = {
        user: pois_of(trace, config) for user, trace in actual.items()
    }
    users = sorted(actual_prints)
    if not users:
        raise ValueError("actual dataset has no users")
    prints = _Fingerprints([actual_prints[u] for u in users])
    assignment: Dict[str, str] = {}
    correct = 0
    for user, trace in protected.items():
        distances = prints.distances_to(pois_of(trace, config))
        guess = users[int(np.argmin(distances))]
        assignment[user] = guess
        if guess == user:
            correct += 1
    return ReidentificationResult(
        assignment=assignment, n_correct=correct, n_total=len(assignment)
    )
