"""Distance matching between low and high bit-width characterizations.

Each high-bit-width design is paired with the low-bit-width design nearest
to it in the scaled (behav, ppa) plane (ties to the lowest low-side UINT),
giving a one-to-many low-to-high mapping.  Pairs become supervised training
rows by concatenating noise bits onto the low config.

Training-set CSV bitstrings are most-significant-first over the whole bit
vector, so the appended noise bits lead the input string.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .artifacts import (
    bitstring_problem,
    bitstrings,
    parse_bitstrings,
    preamble,
    read_artifact,
    write_lines,
)
from .characterize import CharDataset
from .errors import CapacityError, SchemaError
from .operators import AxoConfig, OperatorKind, config_length, parse_kind
from .stats import DistanceKind, SignedDistance, minmax_scale, pairwise_distance_values, points_array

ENUMERATE_NOISE_LIMIT = 12

TRAINING_HEADER = "input_bits,output_bits"


@dataclass(frozen=True)
class MatchedPair:
    l_config: AxoConfig
    h_config: AxoConfig
    distance: SignedDistance


@dataclass(frozen=True)
class MatchDataset:
    low_kind: OperatorKind
    high_kind: OperatorKind
    pairs: list[MatchedPair]
    distance_kind: DistanceKind

    def multiplicity(self) -> dict[int, int]:
        """H count per matched L config; values partition |H|."""
        counts: dict[int, int] = {}
        for p in self.pairs:
            counts[p.l_config.uint] = counts.get(p.l_config.uint, 0) + 1
        return counts


@dataclass(frozen=True)
class EnumerateAll:
    def describe(self) -> str:
        return "enumerate_all"


@dataclass(frozen=True)
class SamplePatterns:
    k: int
    seed: int = 0

    def describe(self) -> str:
        return f"sample:k={self.k}:seed={self.seed}"


def parse_noise_mode(text: str):
    """The noise mode whose ``describe()`` is ``text``."""
    if text == EnumerateAll().describe():
        return EnumerateAll()
    m = re.fullmatch(r"sample:k=(\d+):seed=(\d+)", text)
    if m is None:
        raise SchemaError(f"unknown noise mode {text!r}")
    return SamplePatterns(int(m[1]), seed=int(m[2]))


class TrainingSet:
    """Supervised bit-vector rows: X (n, L_low + n_noise), Y (n, L_high)."""

    def __init__(self, X: np.ndarray, Y: np.ndarray, n_noise: int, meta: dict | None = None):
        self.X = np.ascontiguousarray(X, dtype=np.uint8)
        self.Y = np.ascontiguousarray(Y, dtype=np.uint8)
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("X and Y row counts differ")
        self.n_noise = int(n_noise)
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def input_width(self) -> int:
        return self.X.shape[1]

    @property
    def output_width(self) -> int:
        return self.Y.shape[1]


def match_datasets(l_char: CharDataset, h_char: CharDataset,
                   behav_metric: str = "avg_abs_rel_err", ppa_metric: str = "pdplut",
                   distance_kind: DistanceKind = DistanceKind.EUCLIDEAN) -> MatchDataset:
    """Nearest low design for every high design, scaled independently.

    Output pairs are ordered by high-side UINT; among equidistant low
    candidates the lowest low-side UINT wins, so results never depend on
    evaluation schedule.
    """
    if len(l_char) == 0 or len(h_char) == 0:
        raise ValueError("matching needs two non-empty datasets")
    if l_char.kind.width == h_char.kind.width:
        raise ValueError("matching expects datasets of different operand widths")
    l_pts = minmax_scale(l_char, behav_metric, ppa_metric)
    h_pts = minmax_scale(h_char, behav_metric, ppa_metric)
    l_order = np.argsort([p.source_uint for p in l_pts], kind="stable")
    l_pts = [l_pts[i] for i in l_order]
    l_recs = [l_char.records[i] for i in l_order]
    h_order = np.argsort([p.source_uint for p in h_pts], kind="stable")
    h_pts = [h_pts[i] for i in h_order]
    h_recs = [h_char.records[i] for i in h_order]

    dmat = pairwise_distance_values(points_array(l_pts), points_array(h_pts), distance_kind)
    best = np.argmin(dmat, axis=0)  # first minimum = lowest L uint
    pairs = []
    for j, i in enumerate(best):
        lp, hp = l_pts[i], h_pts[j]
        sd = SignedDistance(
            value=float(dmat[i, j]),
            sign_b=int(np.sign(hp.behav_scaled - lp.behav_scaled)),
            sign_p=int(np.sign(hp.ppa_scaled - lp.ppa_scaled)),
            kind=distance_kind,
        )
        pairs.append(MatchedPair(l_recs[i].config, h_recs[j].config, sd))
    return MatchDataset(l_char.kind, h_char.kind, pairs, distance_kind)


def noise_rows(bases: list[AxoConfig], n_noise: int,
               mode=EnumerateAll()) -> tuple[np.ndarray, list[list[int]]]:
    """Classifier input rows, shared by training and supersampling.

    Each base config gets one row per noise pattern: its bits followed by
    the pattern's n_noise bits, least-significant first.  ``EnumerateAll``
    gives every base all 2^n_noise patterns, bounded by
    ``ENUMERATE_NOISE_LIMIT``; ``SamplePatterns`` draws k patterns per
    base, in base order, from one seeded stream.  Returns the uint8 rows,
    base by base, and each base's pattern list.
    """
    if n_noise < 0:
        raise ValueError("n_noise must be >= 0")
    if isinstance(mode, EnumerateAll):
        if n_noise > ENUMERATE_NOISE_LIMIT:
            raise CapacityError(
                f"enumerating 2^{n_noise} noise patterns exceeds the "
                f"2^{ENUMERATE_NOISE_LIMIT} guard; use SamplePatterns"
            )
        per_base = [list(range(1 << n_noise))] * len(bases)
    elif isinstance(mode, SamplePatterns):
        rng = np.random.default_rng(np.random.SeedSequence((int(mode.seed), 4)))
        per_base = [
            rng.integers(0, 1 << n_noise, size=mode.k).tolist() if n_noise else [0] * mode.k
            for _ in bases
        ]
    else:
        raise TypeError(f"unknown noise mode {mode!r}")
    pats = np.asarray([v for ps in per_base for v in ps], dtype=np.int64)
    noise = (pats[:, None] >> np.arange(n_noise)) & 1
    low = np.repeat(np.asarray([c.bits for c in bases], dtype=np.uint8),
                    [len(ps) for ps in per_base], axis=0)
    return np.concatenate([low, noise.astype(np.uint8)], axis=1), per_base


def augment_with_noise(m: MatchDataset, n_noise: int, mode=EnumerateAll()) -> TrainingSet:
    """One training row per (pair, noise pattern); inputs are the
    ``noise_rows`` of the low configs, outputs the high config bits."""
    X, per_pair = noise_rows([pair.l_config for pair in m.pairs], n_noise, mode)
    Y = np.repeat(np.asarray([pair.h_config.bits for pair in m.pairs], dtype=np.uint8),
                  [len(ps) for ps in per_pair], axis=0)
    meta = {
        "low_kind": m.low_kind.token,
        "high_kind": m.high_kind.token,
        "distance": m.distance_kind.value,
        "n_noise": str(n_noise),
        "mode": mode.describe(),
    }
    return TrainingSet(X, Y, n_noise, meta)


def export_training_csv(t: TrainingSet, path) -> None:
    rows = [f"{x},{y}" for x, y in zip(bitstrings(t.X), bitstrings(t.Y))]
    write_lines(path, [preamble(t.meta), TRAINING_HEADER] + rows)


def import_training_csv(path) -> TrainingSet:
    """Read a training CSV; a malformed row raises SchemaError naming the
    first bad row's line."""
    meta, raw, i = read_artifact(path)
    if i >= len(raw) or raw[i] != TRAINING_HEADER:
        raise SchemaError(f"{path}: bad training header")
    if "n_noise" not in meta:
        raise SchemaError(f"{path}: preamble missing n_noise=")
    if not meta["n_noise"].isdecimal():
        raise SchemaError(f"{path}: n_noise must be a non-negative integer, "
                          f"got {meta['n_noise']!r}")
    n_noise = int(meta["n_noise"])
    rownos, xs, ys = [], [], []
    error = None  # the first row that is not two non-empty fields
    for rowno, ln in enumerate(raw[i + 1:], start=i + 2):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            error = SchemaError(f"{path}:{rowno}: expected input_bits,output_bits")
            break
        rownos.append(rowno)
        xs.append(parts[0])
        ys.append(parts[1])
    if not xs:
        raise error or SchemaError(f"{path}: no training rows")
    # bit columns are checked whole, up to the first row with bad fields
    wx, wy = len(xs[0]), len(ys[0])
    if "low_kind" in meta:
        wx = config_length(parse_kind(meta["low_kind"])) + n_noise
    if "high_kind" in meta:
        wy = config_length(parse_kind(meta["high_kind"]))
    X, bad_x = parse_bitstrings(xs, wx)
    Y, bad_y = parse_bitstrings(ys, wy)
    first = np.flatnonzero(bad_x | bad_y)
    if first.size:
        k = first[0]
        why = bitstring_problem(xs[k], wx) if bad_x[k] else bitstring_problem(ys[k], wy)
        raise SchemaError(f"{path}:{rownos[k]}: {why}")
    if error is not None:
        raise error
    return TrainingSet(X, Y, n_noise, meta)
