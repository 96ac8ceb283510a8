"""Configuration supersampling under scaled constraints.

Low-bit-width configs that satisfy the scaled constraints inside their own
dataset seed the trained bit classifier; each seed is expanded through all
(or sampled) noise patterns into predicted high-bit-width candidates, which
are deduplicated and later evaluated either by estimators (predicted
metrics) or by ground-truth proxy characterization (validated metrics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .artifacts import (
    bitstring_problem,
    bitstrings,
    fmt_column,
    parse_bitstrings,
    preamble,
    read_artifact,
    write_lines,
)
from .characterize import (
    ActivityPolicy,
    CharDataset,
    ProxyWeights,
    characterize_dataset,
)
from .errors import SchemaError, WidthMismatchError
from .forest import ForestModel, predict_bits_batch, predict_metric
from .matching import EnumerateAll, noise_rows
from .operators import AxoConfig, OperatorKind, config_length, parse_kind, row_uints

POOL_HEADER = "config_bits,config_uint,origin_l_uint,noise_pattern,source"
POOL_HEADER_PRED = POOL_HEADER + ",pred_behav,pred_ppa"


@dataclass(frozen=True)
class ConstraintSpec:
    """Absolute metric bounds derived from a training dataset's maxima."""

    b_max: float
    p_max: float
    scaling_factor: float
    behav_metric: str
    ppa_metric: str
    source: str

    def violation(self, behav: float, ppa: float) -> float:
        """Normalized constraint violation; 0 iff feasible."""
        vb = max(0.0, behav - self.b_max) / max(abs(self.b_max), 1e-30)
        vp = max(0.0, ppa - self.p_max) / max(abs(self.p_max), 1e-30)
        return vb + vp

    def feasible(self, behav: float, ppa: float) -> bool:
        return behav <= self.b_max and ppa <= self.p_max


def derive_constraints(train: CharDataset, factor: float,
                       behav_metric: str = "avg_abs_rel_err",
                       ppa_metric: str = "pdplut") -> ConstraintSpec:
    if not 0 < factor <= 1:
        raise ValueError(f"scaling factor must be in (0, 1], got {factor}")
    if len(train) == 0:
        raise ValueError("cannot derive constraints from an empty dataset")
    return ConstraintSpec(
        b_max=factor * float(train.metric_values(behav_metric).max()),
        p_max=factor * float(train.metric_values(ppa_metric).max()),
        scaling_factor=factor,
        behav_metric=behav_metric,
        ppa_metric=ppa_metric,
        source=train.kind.token,
    )


def pareto_mask(behav: np.ndarray, ppa: np.ndarray) -> np.ndarray:
    """Boolean mask of the non-dominated subset (minimize both).

    A point is dominated when another is no worse on both axes and better
    on one, so every exact duplicate of a front point stays on the front.
    Points with a NaN coordinate compare false both ways and are kept.
    """
    behav = np.asarray(behav, dtype=np.float64)
    ppa = np.asarray(ppa, dtype=np.float64)
    mask = np.ones(behav.size, dtype=bool)
    idx = np.flatnonzero(~(np.isnan(behav) | np.isnan(ppa)))
    if idx.size == 0:
        return mask
    order = idx[np.lexsort((ppa[idx], behav[idx]))]
    b, p = behav[order], ppa[order]
    # in (behav, ppa) order a point survives iff it has the least ppa of its
    # behav group and beats the least ppa of every smaller behav
    start = np.ones(b.size, dtype=bool)
    start[1:] = b[1:] != b[:-1]
    group = np.maximum.accumulate(np.where(start, np.arange(b.size), 0))
    first = group == 0
    before = np.minimum.accumulate(p)[np.maximum(group - 1, 0)]
    mask[order] = (p == p[group]) & (first | (p < before))
    return mask


def select_seeds(l_char: CharDataset, spec: ConstraintSpec,
                 mode: str = "all") -> list[AxoConfig]:
    """Low configs meeting the scaled constraints in their own dataset.

    The factor is applied to this dataset's own metric maxima, which is
    identical to thresholding at the factor in min-max scaled space.
    mode "pareto" keeps only the non-dominated subset of the survivors.
    """
    if mode not in ("all", "pareto"):
        raise ValueError(f"unknown seed mode {mode!r}")
    b = l_char.metric_values(spec.behav_metric)
    p = l_char.metric_values(spec.ppa_metric)
    keep = (b <= spec.scaling_factor * b.max()) & (p <= spec.scaling_factor * p.max())
    idx = np.nonzero(keep)[0]
    if mode == "pareto" and idx.size:
        idx = idx[pareto_mask(b[idx], p[idx])]
    return [l_char.records[i].config for i in idx]


class ConssPool:
    """Deduplicated predicted high configs plus their generation traces.

    The configs are ``bits``, (n, L) uint8 rows with bit 0 first, and
    ``uints``, their exact UINTs; ``configs`` builds AxoConfig objects
    from the rows for callers that need them.
    """

    def __init__(self, kind: OperatorKind, bits: np.ndarray,
                 trace: list[tuple[int, int]], source: str = "conss",
                 predicted: dict[str, np.ndarray] | None = None,
                 validated: CharDataset | None = None,
                 meta: dict | None = None):
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 2 or bits.shape[1] != config_length(kind):
            raise WidthMismatchError("pool config length does not match kind")
        if len(bits) != len(trace):
            raise ValueError("trace must align with configs")
        if bits.max(initial=0) > 1:
            raise ValueError("config bits must be 0 or 1")
        uints = row_uints(bits)
        if len(set(uints)) != len(uints):
            raise ValueError("pool configs must be unique by UINT")
        self.kind = kind
        self.bits = bits
        self.uints = uints
        self.trace = trace
        self.source = source
        self.predicted = predicted
        self.validated = validated
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return len(self.bits)

    @property
    def configs(self) -> list[AxoConfig]:
        return [AxoConfig(tuple(row)) for row in self.bits.tolist()]


def supersample(model: ForestModel, high_kind: OperatorKind, seeds: list[AxoConfig],
                n_noise: int, mode=EnumerateAll(), source: str = "conss") -> ConssPool:
    """Predict one high config per ``noise_rows`` row of the seeds, the row
    layout the classifier was trained on.  The pool keeps the predicted
    rows in ascending UINT order, each with the trace of the first row
    that predicted it; all-zeros predictions are dropped."""
    if model.kind != "classifier":
        raise ValueError("supersample needs a classifier model")
    length = config_length(high_kind)
    if not seeds:
        return ConssPool(high_kind, np.zeros((0, length), dtype=np.uint8), [], source)
    l_len = len(seeds[0].bits)
    if model.input_width != l_len + n_noise:
        raise WidthMismatchError(
            f"model expects {model.input_width} input bits, "
            f"seeds + noise give {l_len + n_noise}"
        )
    if model.output_width != length:
        raise WidthMismatchError("model output width does not match high kind")
    rows, per_seed = noise_rows(seeds, n_noise, mode)
    origins = [(s.uint, v) for s, pats in zip(seeds, per_seed) for v in pats]
    pred = predict_bits_batch(model, rows)
    # walking the rows backwards leaves each UINT at its first row
    first = {u: i for i, u in reversed(list(enumerate(row_uints(pred))))}
    first.pop(0, None)
    keep = [first[u] for u in sorted(first)]
    return ConssPool(high_kind, pred[keep], [origins[i] for i in keep], source,
                     meta={"n_noise": str(n_noise), "n_seeds": str(len(seeds))})


@dataclass(frozen=True)
class ProxyCharacterize:
    """Proxy characterization as a pool metric source.  ``threads`` is
    accepted for compatibility and has no effect."""

    input_policy: object
    activity_policy: ActivityPolicy = ActivityPolicy()
    seed: int = 0
    weights: ProxyWeights = ProxyWeights()
    threads: int = 1


@dataclass(frozen=True)
class Estimators:
    behav_est: ForestModel
    ppa_est: ForestModel
    behav_metric: str = "avg_abs_rel_err"
    ppa_metric: str = "pdplut"


def evaluate_pool(pool: ConssPool, metric_source) -> ConssPool:
    """Fill predicted (estimator path) or validated (proxy path) metrics.

    Idempotent: same pool and source give identical metrics.
    """
    if len(pool) == 0:
        raise ValueError("cannot evaluate an empty pool")
    if isinstance(metric_source, Estimators):
        predicted = {
            metric_source.behav_metric: predict_metric(metric_source.behav_est, pool.bits),
            metric_source.ppa_metric: predict_metric(metric_source.ppa_est, pool.bits),
        }
        return ConssPool(pool.kind, pool.bits, pool.trace, pool.source,
                         predicted=predicted, validated=pool.validated, meta=pool.meta)
    if isinstance(metric_source, ProxyCharacterize):
        ds = characterize_dataset(
            pool.kind, pool.configs, metric_source.input_policy,
            metric_source.activity_policy, seed=metric_source.seed,
            weights=metric_source.weights,
        )
        return ConssPool(pool.kind, pool.bits, pool.trace, pool.source,
                         predicted=pool.predicted, validated=ds, meta=pool.meta)
    raise TypeError(f"unknown metric source {metric_source!r}")


def export_pool_csv(pool: ConssPool, path, behav_metric: str = "avg_abs_rel_err",
                    ppa_metric: str = "pdplut") -> None:
    meta = {"kind": pool.kind.token, "source": pool.source, **pool.meta}
    if pool.predicted is not None:
        meta["behav_metric"] = behav_metric
        meta["ppa_metric"] = ppa_metric
    lines = [preamble(meta),
             POOL_HEADER_PRED if pool.predicted is not None else POOL_HEADER]
    rows = [f"{b},{u},{lu},{pat},{pool.source}"
            for b, u, (lu, pat) in zip(bitstrings(pool.bits), pool.uints, pool.trace)]
    if pool.predicted is not None:
        rows = [f"{r},{b},{p}" for r, b, p in zip(rows, fmt_column(pool.predicted[behav_metric]),
                                                 fmt_column(pool.predicted[ppa_metric]))]
    write_lines(path, lines + rows)


def import_pool_csv(path) -> ConssPool:
    """Read a pool CSV; a malformed row raises SchemaError naming the
    first bad row's line."""
    meta, raw, i = read_artifact(path)
    if "kind" not in meta:
        raise SchemaError(f"{path}: preamble missing kind=")
    if i >= len(raw) or raw[i] not in (POOL_HEADER, POOL_HEADER_PRED):
        raise SchemaError(f"{path}: bad pool header")
    has_pred = raw[i] == POOL_HEADER_PRED
    kind = parse_kind(meta.pop("kind"))
    source = meta.pop("source", "conss")
    n_fields = 7 if has_pred else 5
    rownos, strings, uints, trace, preds = [], [], [], [], []
    error = None  # the first row whose other fields do not parse
    for rowno, ln in enumerate(raw[i + 1:], start=i + 2):
        if not ln:
            continue
        parts = ln.split(",")
        try:
            if len(parts) != n_fields:
                raise ValueError(f"expected {n_fields} fields")
            uint, lu, pat = int(parts[1]), int(parts[2]), int(parts[3])
            pred = (float(parts[5]), float(parts[6])) if has_pred else ()
        except ValueError as e:
            error = SchemaError(f"{path}:{rowno}: {e}")
            break
        rownos.append(rowno)
        strings.append(parts[0])
        uints.append(uint)
        trace.append((lu, pat))
        preds.append(pred)
    # the bit rows are checked as one column, up to the first scalar error
    length = config_length(kind)
    bits, bad = parse_bitstrings(strings, length)
    mismatch = [u != v for u, v in zip(row_uints(bits), uints)]
    first = np.flatnonzero(bad | np.asarray(mismatch, dtype=bool))
    if first.size:
        k = first[0]
        why = bitstring_problem(strings[k], length) if bad[k] else "config_uint mismatch"
        raise SchemaError(f"{path}:{rownos[k]}: {why}")
    if error is not None:
        raise error
    predicted = None
    if has_pred:
        predicted = {
            meta.get("behav_metric", "avg_abs_rel_err"): np.asarray([p[0] for p in preds]),
            meta.get("ppa_metric", "pdplut"): np.asarray([p[1] for p in preds]),
        }
    return ConssPool(kind, bits, trace, source, predicted=predicted, meta=meta)
