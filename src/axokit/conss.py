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

from .artifacts import fmt, preamble, read_artifact, write_lines
from .characterize import (
    ActivityPolicy,
    CharDataset,
    ProxyWeights,
    characterize_dataset,
)
from .errors import SchemaError, WidthMismatchError
from .forest import ForestModel, predict_bits_batch, predict_metric
from .matching import EnumerateAll, SamplePatterns
from .operators import AxoConfig, OperatorKind, config_length, parse_kind

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
    """Boolean mask of the non-dominated subset (minimize both)."""
    n = behav.size
    mask = np.ones(n, dtype=bool)
    for i in range(n):
        if not mask[i]:
            continue
        dom = (behav <= behav[i]) & (ppa <= ppa[i]) & ((behav < behav[i]) | (ppa < ppa[i]))
        if dom.any():
            mask[i] = False
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
    """Deduplicated predicted high configs plus their generation traces."""

    def __init__(self, kind: OperatorKind, configs: list[AxoConfig],
                 trace: list[tuple[int, int]], source: str = "conss",
                 predicted: dict[str, np.ndarray] | None = None,
                 validated: CharDataset | None = None,
                 meta: dict | None = None):
        if len(configs) != len(trace):
            raise ValueError("trace must align with configs")
        uints = [c.uint for c in configs]
        if len(set(uints)) != len(uints):
            raise ValueError("pool configs must be unique by UINT")
        length = config_length(kind)
        for c in configs:
            if len(c) != length:
                raise WidthMismatchError("pool config length does not match kind")
        self.kind = kind
        self.configs = configs
        self.trace = trace
        self.source = source
        self.predicted = predicted
        self.validated = validated
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return len(self.configs)

    def config_matrix(self) -> np.ndarray:
        return np.asarray([c.bits for c in self.configs], dtype=np.uint8)


def supersample(model: ForestModel, high_kind: OperatorKind, seeds: list[AxoConfig],
                n_noise: int, mode=EnumerateAll(), source: str = "conss") -> ConssPool:
    """Predict one high config per (seed, noise pattern); dedup by UINT
    keeping the first trace; all-zeros predictions are dropped."""
    if model.kind != "classifier":
        raise ValueError("supersample needs a classifier model")
    if not seeds:
        return ConssPool(high_kind, [], [], source)
    l_len = len(seeds[0].bits)
    if model.input_width != l_len + n_noise:
        raise WidthMismatchError(
            f"model expects {model.input_width} input bits, "
            f"seeds + noise give {l_len + n_noise}"
        )
    if model.output_width != config_length(high_kind):
        raise WidthMismatchError("model output width does not match high kind")
    if isinstance(mode, EnumerateAll):
        patterns = list(range(1 << n_noise))
        per_seed = [patterns] * len(seeds)
    elif isinstance(mode, SamplePatterns):
        rng = np.random.default_rng(np.random.SeedSequence((int(mode.seed), 4)))
        per_seed = [
            rng.integers(0, 1 << n_noise, size=mode.k).tolist() if n_noise else [0] * mode.k
            for _ in seeds
        ]
    else:
        raise TypeError(f"unknown mode {mode!r}")
    rows, origins = [], []
    for seed_cfg, pats in zip(seeds, per_seed):
        for v in pats:
            rows.append(seed_cfg.bits + tuple((v >> j) & 1 for j in range(n_noise)))
            origins.append((seed_cfg.uint, v))
    pred = predict_bits_batch(model, np.asarray(rows, dtype=np.uint8))
    seen: dict[int, tuple[int, int]] = {}
    for bits, origin in zip(pred, origins):
        cfg = AxoConfig(tuple(int(b) for b in bits))
        if cfg.uint == 0 or cfg.uint in seen:
            continue
        seen[cfg.uint] = origin
    order = sorted(seen)
    length = config_length(high_kind)
    configs = [AxoConfig.from_uint(u, length) for u in order]
    trace = [seen[u] for u in order]
    return ConssPool(high_kind, configs, trace, source,
                     meta={"n_noise": str(n_noise), "n_seeds": str(len(seeds))})


@dataclass(frozen=True)
class ProxyCharacterize:
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
        X = pool.config_matrix()
        predicted = {
            metric_source.behav_metric: predict_metric(metric_source.behav_est, X),
            metric_source.ppa_metric: predict_metric(metric_source.ppa_est, X),
        }
        return ConssPool(pool.kind, pool.configs, pool.trace, pool.source,
                         predicted=predicted, validated=pool.validated, meta=pool.meta)
    if isinstance(metric_source, ProxyCharacterize):
        ds = characterize_dataset(
            pool.kind, pool.configs, metric_source.input_policy,
            metric_source.activity_policy, seed=metric_source.seed,
            weights=metric_source.weights, threads=metric_source.threads,
        )
        return ConssPool(pool.kind, pool.configs, pool.trace, pool.source,
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
    for i, (cfg, (lu, pat)) in enumerate(zip(pool.configs, pool.trace)):
        row = [cfg.bitstring(), str(cfg.uint), str(lu), str(pat), pool.source]
        if pool.predicted is not None:
            row.append(fmt(pool.predicted[behav_metric][i]))
            row.append(fmt(pool.predicted[ppa_metric][i]))
        lines.append(",".join(row))
    write_lines(path, lines)


def import_pool_csv(path) -> ConssPool:
    meta, raw, i = read_artifact(path)
    if "kind" not in meta:
        raise SchemaError(f"{path}: preamble missing kind=")
    if i >= len(raw) or raw[i] not in (POOL_HEADER, POOL_HEADER_PRED):
        raise SchemaError(f"{path}: bad pool header")
    has_pred = raw[i] == POOL_HEADER_PRED
    kind = parse_kind(meta.pop("kind"))
    source = meta.pop("source", "conss")
    configs, trace = [], []
    pb, pp = [], []
    n_fields = 7 if has_pred else 5
    for rowno, ln in enumerate(raw[i + 1:], start=i + 2):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != n_fields:
            raise SchemaError(f"{path}:{rowno}: expected {n_fields} fields")
        try:
            cfg = AxoConfig.from_bitstring(parts[0])
            if int(parts[1]) != cfg.uint:
                raise ValueError("config_uint mismatch")
            trace.append((int(parts[2]), int(parts[3])))
            if has_pred:
                pb.append(float(parts[5]))
                pp.append(float(parts[6]))
        except ValueError as e:
            raise SchemaError(f"{path}:{rowno}: {e}") from e
        configs.append(cfg)
    predicted = None
    if has_pred:
        predicted = {
            meta.get("behav_metric", "avg_abs_rel_err"): np.asarray(pb),
            meta.get("ppa_metric", "pdplut"): np.asarray(pp),
        }
    return ConssPool(kind, configs, trace, source, predicted=predicted, meta=meta)
