"""Scaling, clustering, trends, and signed distances over characterizations.

Everything here is pure and seeded.  Points live in the min-max scaled
(behav, ppa) plane; each dataset is scaled by its own min/max so fronts
from different bit-widths overlay meaningfully.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .characterize import CharDataset


class DistanceKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    MANHATTAN = "manhattan"
    PARETO = "pareto"


@dataclass(frozen=True)
class ScaledPoint:
    behav_scaled: float
    ppa_scaled: float
    source_uint: int


@dataclass(frozen=True)
class SignedDistance:
    """Distance plus the per-axis direction from the reference point.

    sign_b = sign(B_other - B_ref), sign_p likewise; both 0 only for
    coincident points.
    """

    value: float
    sign_b: int
    sign_p: int
    kind: DistanceKind


@dataclass(frozen=True)
class Cluster:
    centroid: tuple[float, float]
    member_uints: list[int]
    hull: np.ndarray  # (m, 2) CCW vertices


def scale_array(x: np.ndarray) -> np.ndarray:
    """Min-max scale to [0,1]; a constant column maps to all zeros."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = x.min(), x.max()
    if hi == lo:
        return np.zeros_like(x)
    return (x - lo) / (hi - lo)


def minmax_scale(dataset: CharDataset, behav_metric: str, ppa_metric: str) -> list[ScaledPoint]:
    if len(dataset) == 0:
        raise ValueError("cannot scale an empty dataset")
    b = scale_array(dataset.metric_values(behav_metric))
    p = scale_array(dataset.metric_values(ppa_metric))
    u = dataset.uints()
    return [ScaledPoint(float(b[i]), float(p[i]), int(u[i])) for i in range(len(dataset))]


def points_array(points) -> np.ndarray:
    return np.asarray([(pt.behav_scaled, pt.ppa_scaled) for pt in points], dtype=np.float64)


def pairwise_distance_values(ref: np.ndarray, other: np.ndarray,
                             kind: DistanceKind) -> np.ndarray:
    """(len(ref), len(other)) unsigned distance matrix, vectorized."""
    db = other[None, :, 0] - ref[:, None, 0]
    dp = other[None, :, 1] - ref[:, None, 1]
    ab, ap = np.abs(db), np.abs(dp)
    if kind is DistanceKind.EUCLIDEAN:
        # plain sqrt form, not hypot: ties must land identically for any
        # straightforward reimplementation of the formula
        return np.sqrt(db * db + dp * dp)
    if kind is DistanceKind.MANHATTAN:
        return ab + ap
    # Pareto: dominance pairs (deltas share sign, or one axis equal) read
    # as the full Manhattan gap, trade-off pairs as the smaller axis gap.
    return np.where(db * dp >= 0, ab + ap, np.minimum(ab, ap))


def distance(p: ScaledPoint, q: ScaledPoint, kind: DistanceKind) -> SignedDistance:
    ref = np.asarray([[p.behav_scaled, p.ppa_scaled]])
    oth = np.asarray([[q.behav_scaled, q.ppa_scaled]])
    value = float(pairwise_distance_values(ref, oth, kind)[0, 0])
    sign_b = int(np.sign(q.behav_scaled - p.behav_scaled))
    sign_p = int(np.sign(q.ppa_scaled - p.ppa_scaled))
    return SignedDistance(value, sign_b, sign_p, kind)


# -- k-means ----------------------------------------------------------

def _farthest_point_init(arr: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [int(rng.integers(arr.shape[0]))]
    for _ in range(1, k):
        d = np.min(
            ((arr[:, None, :] - arr[centers][None, :, :]) ** 2).sum(axis=2), axis=1
        )
        centers.append(int(np.argmax(d)))
    return arr[centers].copy()


def _lloyd(arr: np.ndarray, k: int, seed: int, max_iter: int):
    """Returns (centroids, labels, sse_history). SSE is non-increasing."""
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 3)))
    cent = _farthest_point_init(arr, k, rng)
    labels = np.full(arr.shape[0], -1)
    history = []
    for _ in range(max_iter):
        d2 = ((arr[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(arr.shape[0]), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = arr[labels == j]
            if members.shape[0]:
                cent[j] = members.mean(axis=0)
            else:
                # re-seed a starved cluster at the point farthest from the
                # surviving centroids; strictly lowers SSE
                far = np.min(((arr[:, None, :] - cent[None, :, :]) ** 2).sum(axis=2), axis=1)
                cent[j] = arr[int(np.argmax(far))]
    return cent, labels, history


def kmeans(points, k: int, seed: int = 0, max_iter: int = 100) -> list[Cluster]:
    """Lloyd's algorithm with seeded farthest-point initialization."""
    pts = list(points)
    if not 1 <= k <= len(pts):
        raise ValueError(f"k={k} out of range for {len(pts)} points")
    arr = points_array(pts)
    _, labels, _ = _lloyd(arr, k, seed, max_iter)
    clusters = []
    for j in range(k):
        idx = np.nonzero(labels == j)[0]
        if idx.size == 0:
            continue
        members = arr[idx]
        clusters.append(
            Cluster(
                centroid=(float(members[:, 0].mean()), float(members[:, 1].mean())),
                member_uints=[pts[i].source_uint for i in idx],
                hull=convex_hull(members),
            )
        )
    return clusters


def sse_curve(points, k_max: int, seed: int = 0) -> list[float]:
    """Converged k-means SSE for k = 1..min(k_max, number of points)."""
    pts = list(points)
    k_max = min(k_max, len(pts))
    if k_max < 1:
        raise ValueError("need at least one point")
    arr = points_array(pts)
    return [_lloyd(arr, k, seed, 100)[2][-1] for k in range(1, k_max + 1)]


def elbow_pick(sse) -> int:
    """k maximizing the discrete second difference of ``sse``, the SSE at
    k = 1, 2, ...; fewer than three values leave none, so the largest k."""
    if len(sse) < 3:
        return len(sse)
    curve = np.asarray(sse)
    second = curve[:-2] - 2 * curve[1:-1] + curve[2:]
    return int(np.argmax(second)) + 2  # second[j] is the curvature at k=j+2


def elbow_select(points, k_max: int, seed: int = 0) -> int:
    """k in [1, k_max] maximizing the discrete second difference of SSE."""
    return elbow_pick(sse_curve(points, k_max, seed))


def windowed_trend(dataset: CharDataset, metric: str, window: int) -> list[tuple[int, float]]:
    """Means of the min-max-scaled metric over consecutive disjoint windows
    in config_uint order; the final partial window is kept."""
    if window < 1:
        raise ValueError("window must be >= 1")
    order = np.argsort(dataset.uints(), kind="stable")
    scaled = scale_array(dataset.metric_values(metric))[order]
    return [
        (i // window, float(scaled[i:i + window].mean()))
        for i in range(0, scaled.size, window)
    ]


def distance_histogram(l_char: CharDataset, h_char: CharDataset, kind: DistanceKind,
                       bins: int = 50, behav_metric: str = "avg_abs_rel_err",
                       ppa_metric: str = "pdplut"):
    """Histogram over all |L|x|H| pairwise distances, each dataset scaled
    by its own min/max. Returns (counts, bin_edges)."""
    lp = points_array(minmax_scale(l_char, behav_metric, ppa_metric))
    hp = points_array(minmax_scale(h_char, behav_metric, ppa_metric))
    vals = pairwise_distance_values(lp, hp, kind).ravel()
    return np.histogram(vals, bins=bins)


def convex_hull(points: np.ndarray) -> np.ndarray:
    """Convex hull vertices in counter-clockwise order (monotone chain).

    Collinear sets reduce to the two extreme points, a single point to
    itself; interior collinear points are dropped.
    """
    pts = np.unique(np.asarray(points, dtype=np.float64), axis=0)
    if pts.shape[0] <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[np.ndarray] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[np.ndarray] = []
    for p in pts[::-1]:
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return np.asarray(lower[:-1] + upper[:-1])
