"""Behavioral error and proxy-PPA characterization of operator configs.

BEHAV metrics come from simulating the configured operator against exact
arithmetic, exhaustively or over seeded uniform samples.  PPA metrics come
from a declared proxy cost model: LUT utilization is the config popcount,
critical path is a weighted longest path over the cells still switching,
and power is the mean toggle count per cycle under a random activity
stream.  Real synthesis numbers can be imported through the same CSV
schema (provenance ``imported_external``) and flow through every
downstream module unchanged.

Every path goes through one block body: configs are simulated in blocks
of at most ``BLOCK_LANES`` lanes (see :mod:`axokit.simcore`), while each
record keeps its own RNG streams, so a record never depends on which
block computed it.  ``cpd_proxy`` is one constant-folding pass over the
cells for all configs of a call; a single config is the pass with k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .artifacts import fmt, preamble, read_artifact, write_lines
from .errors import CapacityError, DuplicateConfigError, SchemaError
from .operators import (
    OP_BW,
    OP_MUX,
    AxoConfig,
    OperatorKind,
    OperatorNetlist,
    build_netlist,
    config_length,
    parse_kind,
)
from . import simcore

EXHAUSTIVE_INPUT_BITS = 24

# Lanes per simulation block: configs are grouped so that one block's
# signal rows span at most this many word-padded lanes.  A larger budget
# cuts per-call overhead but grows the toggle-counting temporaries: at
# 2^16 the peak RSS of characterizing 256 exhaustive mul:s8 configs rose
# 14 % over one-config-per-pass simulation, at 2^14 it stays within 2 %.
# A config with more lanes than this (exhaustive mul:s8 has 65,536) is a
# block of its own.  Such blocks share the grid's bit planes, packed once
# per call, and their gate rows are all-ones or all-zero, so the kernel
# never masks them.
BLOCK_LANES = 1 << 14

# Configs per constant-folding pass of ``cpd_proxy``.  Its state is about
# 9 bytes per signal and config (0.6 MB for mul:s8); at 1024 configs the
# peak RSS of characterizing all mul:s4 configs rose 0.5 MB over a
# per-config loop, at 256 it does not.  The fold of those 1023 configs
# then takes about 9 ms in four passes (4 ms in one, 50 ms config by
# config).
CPD_CONFIGS = 256

BEHAV_METRICS = ("avg_abs_err", "avg_abs_rel_err", "max_abs_err", "err_rate")
PPA_METRICS = ("lut_util", "cpd_proxy", "power_proxy", "pdp", "pdplut")
METRICS = BEHAV_METRICS + PPA_METRICS

CSV_HEADER = "config_bits,config_uint," + ",".join(METRICS)

PROVENANCE_PROXY = "proxy_model"
PROVENANCE_IMPORTED = "imported_external"

# RNG stream tags; every per-record stream is SeedSequence((seed, tag, uint))
# so results are independent of evaluation order and block grouping.
_TAG_BEHAV = 0
_TAG_ACTIVITY = 1


@dataclass(frozen=True)
class ProxyWeights:
    """Declared cost-model constants (see runconfig for the file form)."""

    lut_delay: float = 1.0
    carry_delay: float = 0.1
    unit_energy: float = 1.0


@dataclass(frozen=True)
class Exhaustive:
    """Simulate every operand pair."""

    def describe(self) -> str:
        return "exhaustive"


@dataclass(frozen=True)
class Sampled:
    """Simulate n seeded uniform operand pairs.

    seed None defers to the dataset-level seed.
    """

    n: int
    seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"sampled input policy needs n >= 1 operand pairs, got {self.n}")

    def describe(self) -> str:
        return f"sampled:n={self.n}"


@dataclass(frozen=True)
class ActivityPolicy:
    """Random consecutive input vectors for toggle counting."""

    cycles: int = 2048
    seed: int | None = None

    def describe(self) -> str:
        return f"activity:cycles={self.cycles}"


@dataclass(frozen=True)
class BehavMetrics:
    avg_abs_err: float
    avg_abs_rel_err: float
    max_abs_err: float
    err_rate: float


@dataclass(frozen=True)
class PpaMetrics:
    lut_util: int
    cpd_proxy: float
    power_proxy: float
    pdp: float
    pdplut: float


@dataclass(frozen=True)
class CharRecord:
    config: AxoConfig
    behav: BehavMetrics
    ppa: PpaMetrics

    @property
    def config_uint(self) -> int:
        return self.config.uint

    def metric(self, name: str) -> float:
        if name in BEHAV_METRICS:
            return getattr(self.behav, name)
        if name in PPA_METRICS:
            return getattr(self.ppa, name)
        raise KeyError(f"unknown metric {name!r}")


class CharDataset:
    """Characterization records for one operator kind.

    ``meta`` carries the CSV preamble key=value pairs; ``provenance`` and
    ``seed`` are required, anything else (policy descriptors, validation
    counts) rides along untouched.
    """

    def __init__(self, kind: OperatorKind, records: Sequence[CharRecord], meta: dict | None = None):
        self.kind = kind
        self.records = list(records)
        self.meta = dict(meta or {})
        self.meta.setdefault("provenance", PROVENANCE_PROXY)
        self.meta.setdefault("seed", "0")
        seen = set()
        for r in self.records:
            if len(r.config) != config_length(kind):
                raise SchemaError(
                    f"config length {len(r.config)} does not match kind {kind}"
                )
            if r.config_uint in seen:
                raise DuplicateConfigError(f"duplicate config_uint {r.config_uint}")
            seen.add(r.config_uint)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def provenance(self) -> str:
        return str(self.meta["provenance"])

    @property
    def seed(self) -> int:
        return int(self.meta["seed"])

    def uints(self) -> np.ndarray:
        """Exact config UINTs: int64 when they fit, else uint64 or object."""
        return np.asarray([r.config_uint for r in self.records])

    def metric_values(self, name: str) -> np.ndarray:
        return np.asarray([r.metric(name) for r in self.records], dtype=np.float64)

    def metric_matrix(self, names: Sequence[str]) -> np.ndarray:
        return np.column_stack([self.metric_values(n) for n in names]) if self.records \
            else np.zeros((0, len(names)))

    def config_matrix(self) -> np.ndarray:
        """(n_records, L) uint8 matrix of config bits, l_0 in column 0."""
        return np.asarray([r.config.bits for r in self.records], dtype=np.uint8)

    def subset(self, indices: Iterable[int]) -> "CharDataset":
        recs = [self.records[i] for i in indices]
        return CharDataset(self.kind, recs, dict(self.meta))

    def by_uint(self) -> dict[int, CharRecord]:
        return {r.config_uint: r for r in self.records}


def _operand_grid(kind: OperatorKind):
    lo, hi = kind.operand_range()
    span = hi - lo
    a = np.repeat(np.arange(lo, hi, dtype=np.int64), span)
    b = np.tile(np.arange(lo, hi, dtype=np.int64), span)
    return a, b


def _record_rng(seed: int, tag: int, config: AxoConfig) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((int(seed), tag, config.uint)))


def _record_operands(kind: OperatorKind, configs: Sequence[AxoConfig], n: int,
                     seed: int, tag: int):
    """(k, n) operand rows, row i drawn from config i's own stream, a before b."""
    lo, hi = kind.operand_range()
    ab = np.empty((2, len(configs), n), dtype=np.int64)
    for i, c in enumerate(configs):
        # One (2, n) draw is the n values of a followed by the n of b:
        # numpy fills it element by element from the same bit generator,
        # whose buffered 32-bit half carries over between calls, so it
        # equals two successive size-n draws (pinned by a test).
        ab[:, i] = _record_rng(seed, tag, c).integers(lo, hi, size=(2, n), dtype=np.int64)
    return ab[0], ab[1]


def _block_size(lanes: int) -> int:
    """Configs per simulation block: at most BLOCK_LANES word-padded lanes,
    and one config whose lanes alone exceed the budget."""
    return max(1, BLOCK_LANES // (64 * ((lanes + 63) // 64)))


def _denominator(exact: np.ndarray) -> np.ndarray:
    """Relative-error denominator max(1, |exact|)."""
    return np.maximum(1.0, np.abs(exact).astype(np.float64))


def _exhaustive_inputs(kind: OperatorKind, input_policy):
    """(a, b, exact, denominator, packed operand planes) over the whole
    operand grid for Exhaustive, None for Sampled (whose operands are per
    record)."""
    if isinstance(input_policy, Exhaustive):
        if 2 * kind.width > EXHAUSTIVE_INPUT_BITS:
            raise CapacityError(
                f"exhaustive characterization needs {2 * kind.width} input bits "
                f"(limit {EXHAUSTIVE_INPUT_BITS}); use Sampled"
            )
        a, b = _operand_grid(kind)
        exact = kind.exact(a, b)
        return a, b, exact, _denominator(exact), simcore._operand_planes(kind.width, a, b)
    if isinstance(input_policy, Sampled):
        return None
    raise TypeError(f"unknown input policy {input_policy!r}")


def _behav_from_outputs(exact: np.ndarray, out: np.ndarray,
                        denom: np.ndarray) -> list[BehavMetrics]:
    """Error metrics of each row of ``out`` (k, lanes) against ``exact``
    and its ``_denominator``, shared (lanes,) or one row per config.

    Absolute errors are summed and maxed in int64: every partial sum is
    exact below 2^53, so the mean equals the float64 mean bit for bit.
    """
    err = exact - out
    wrong = np.count_nonzero(err, axis=-1)
    np.abs(err, out=err)
    total = err.sum(axis=-1)
    mx = err.max(axis=-1)
    rel = np.divide(err, denom).mean(axis=-1)
    n = err.shape[-1]
    return [
        BehavMetrics(
            avg_abs_err=float(total[i]) / n,
            avg_abs_rel_err=float(rel[i]),
            max_abs_err=float(mx[i]),
            err_rate=int(wrong[i]) / n,
        )
        for i in range(err.shape[0])
    ]


def _behav_block(net: OperatorNetlist, configs: list[AxoConfig], input_policy,
                 seed: int, grid) -> list[BehavMetrics]:
    """BEHAV metrics of a config block in one simulation pass; ``grid`` is
    the shared exhaustive ``_exhaustive_inputs`` or None for sampled
    operands."""
    if grid is not None:
        a, b, exact, denom, planes = grid
        out = simcore.evaluate_configs(net, configs, a, b, _planes=planes)
    else:
        eff = input_policy.seed if input_policy.seed is not None else seed
        a, b = _record_operands(net.kind, configs, input_policy.n, eff, _TAG_BEHAV)
        exact = net.kind.exact(a, b)
        denom = _denominator(exact)
        out = simcore.evaluate_configs(net, configs, a, b)
    return _behav_from_outputs(exact, out, denom)


def behav_characterize(kind: OperatorKind, config: AxoConfig, input_policy,
                       seed: int = 0, netlist: OperatorNetlist | None = None) -> BehavMetrics:
    """Error metrics of one config against exact arithmetic.

    Relative error uses denominator max(1, |exact|) so zero products are
    well defined.
    """
    net = netlist if netlist is not None else build_netlist(kind)
    net.check_config(config)
    grid = _exhaustive_inputs(kind, input_policy)
    return _behav_block(net, [config], input_policy, seed, grid)[0]


def _pymax(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise ``max(x, y)`` with Python's rule: ``y`` only where it is
    greater, so NaN and -0.0 resolve as in a scalar ``max``."""
    return np.where(y > x, y, x)


def _cpd_fold(net: OperatorNetlist, configs: Sequence[AxoConfig],
               weights: ProxyWeights) -> list[float]:
    """``cpd_proxy`` of every config of ``configs`` in one folding pass.

    Per signal, ``st`` holds each config's constant state (0, 1, or -1
    for switching) and ``ar`` its arrival time, 0.0 where the signal is
    constant.  The pass walks the cells once, in chunks of ``CPD_CONFIGS``
    configs to bound memory.
    """
    res: list[float] = []
    for i in range(0, len(configs), CPD_CONFIGS):
        chunk = configs[i:i + CPD_CONFIGS]
        k = len(chunk)
        keep = np.ascontiguousarray(np.asarray([c.bits for c in chunk], dtype=bool).T)
        zero = np.zeros(k)
        st = ([np.zeros(k, dtype=np.int8), np.ones(k, dtype=np.int8)]
              + [np.full(k, -1, dtype=np.int8)] * (2 * net.kind.width)
              + [None] * len(net.cells))
        ar = [zero] * net.n_signals

        def fold_and(s0, s1):
            c0, c1 = st[s0], st[s1]
            cs = np.where((c0 == 0) | (c1 == 0), 0, np.minimum(c0, c1))
            t = np.where(c0 == 1, ar[s1], np.where(c1 == 1, ar[s0], _pymax(ar[s0], ar[s1])))
            return cs, np.where(cs < 0, t, 0.0)

        for c in net.cells:
            w = weights.lut_delay if c.kind == "Lut" else weights.carry_delay
            on = keep[c.config_index] if c.config_index >= 0 else None
            if c.op == OP_BW:
                ca, ta = fold_and(c.inputs[0], c.inputs[1])
                cb, tb = fold_and(c.inputs[2], c.inputs[3])
                neg = c.flags & 1 ^ (c.flags >> 1) & 1
                const = (ca >= 0) & (cb >= 0)
                so = np.where(const, ca ^ cb ^ neg, -1)
                t = w + _pymax(ta, tb)
            elif c.op == OP_MUX:
                sel, chain = c.inputs[0], c.inputs[1]
                cd, td = fold_and(c.inputs[2], c.inputs[3])
                cd = np.where(cd >= 0, cd ^ (c.flags & 1), cd)
                if on is not None:
                    cd, td = np.where(on, cd, 0), np.where(on, td, 0.0)
                cs, cc = st[sel], st[chain]
                both = np.where((cc == cd) & (cd >= 0), cd, -1)
                so = np.where(cs == 1, cc, np.where(cs == 0, cd, both))
                m = np.where((cc < 0) & (ar[chain] > ar[sel]), ar[chain], ar[sel])
                m = np.where((cd < 0) & (td > m), td, m)
                t = w + np.where(cs == 1, ar[chain], np.where(cs == 0, td, m))
            else:  # OP_XOR2
                s0, s1 = c.inputs
                c0, c1 = st[s0], st[s1]
                const = (c0 >= 0) & (c1 >= 0)
                so = np.where(const, c0 ^ c1, -1)
                t = w + np.where(c0 >= 0, ar[s1], np.where(c1 >= 0, ar[s0],
                                                           _pymax(ar[s0], ar[s1])))
            if c.kind == "Lut" and on is not None:
                # a removed LUT emits constant 0
                so = np.where(on, so, 0)
            st[c.out] = so
            ar[c.out] = np.where(so < 0, t, 0.0)
        outs = [ar[s] for s in net.out_signals]
        best = outs[0] if outs else zero
        for x in outs[1:]:
            best = _pymax(best, x)
        res += best.tolist()
    return res


def cpd_proxy(net: OperatorNetlist, config: AxoConfig,
              weights: ProxyWeights = ProxyWeights()) -> float:
    """Weighted longest path over cells still switching under ``config``.

    Constants are folded: a removed LUT and the carry mux it gates emit
    constant 0, so they neither delay nor extend any path; cells with a
    constant output contribute 0 regardless of their inputs.
    """
    net.check_config(config)
    return _cpd_fold(net, [config], weights)[0]


def _ppa_block(net: OperatorNetlist, configs: list[AxoConfig], cpds: list[float],
               activity_policy: ActivityPolicy, seed: int,
               weights: ProxyWeights) -> list[PpaMetrics]:
    """Proxy cost metrics of a config block from its ``cpd_proxy`` values;
    toggles in one simulation pass that unpacks no outputs."""
    cycles = activity_policy.cycles
    eff = activity_policy.seed if activity_policy.seed is not None else seed
    a, b = _record_operands(net.kind, configs, cycles, eff, _TAG_ACTIVITY)
    toggles = simcore.evaluate_toggles(net, configs, a, b)
    metrics = []
    for config, cpd, t in zip(configs, cpds, toggles.tolist()):
        power = t / (cycles - 1) * weights.unit_energy
        lut = config.popcount
        metrics.append(PpaMetrics(
            lut_util=lut,
            cpd_proxy=cpd,
            power_proxy=power,
            pdp=power * cpd,
            pdplut=power * cpd * lut,
        ))
    return metrics


def _check_activity(activity_policy: ActivityPolicy) -> None:
    if activity_policy.cycles < 2:
        raise ValueError("activity policy needs at least 2 cycles")


def ppa_characterize(net: OperatorNetlist, config: AxoConfig, activity_policy: ActivityPolicy,
                     seed: int = 0, weights: ProxyWeights = ProxyWeights()) -> PpaMetrics:
    """Proxy cost metrics of one config.

    power_proxy is the mean toggle count per cycle over all cell outputs
    (constant outputs never toggle) under ``cycles`` consecutive random
    vectors; pdp and pdplut follow by the declared identities.
    """
    net.check_config(config)
    _check_activity(activity_policy)
    return _ppa_block(net, [config], [cpd_proxy(net, config, weights)],
                      activity_policy, seed, weights)[0]


def characterize_dataset(kind: OperatorKind, configs: Sequence[AxoConfig],
                         input_policy, activity_policy: ActivityPolicy = ActivityPolicy(),
                         seed: int = 0, weights: ProxyWeights = ProxyWeights(),
                         threads: int = 1,
                         provenance: str = PROVENANCE_PROXY) -> CharDataset:
    """Characterize many configs; order preserved.

    Configs are simulated in blocks of at most BLOCK_LANES lanes, BEHAV
    and activity separately; per-record RNG streams make every record
    independent of its block.  The exhaustive operand grid and its exact
    results are built once per call.  ``threads`` is accepted for
    compatibility and has no effect.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("config list is empty")
    seen = set()
    for c in configs:
        if c.uint in seen:
            raise DuplicateConfigError(f"duplicate config_uint {c.uint}")
        seen.add(c.uint)
    net = build_netlist(kind)
    grid = _exhaustive_inputs(kind, input_policy)
    _check_activity(activity_policy)
    per = _block_size(grid[0].size if grid is not None else input_policy.n)
    behavs = [m for i in range(0, len(configs), per)
              for m in _behav_block(net, configs[i:i + per], input_policy, seed, grid)]
    cpds = _cpd_fold(net, configs, weights)
    per = _block_size(activity_policy.cycles)
    ppas = [m for i in range(0, len(configs), per)
            for m in _ppa_block(net, configs[i:i + per], cpds[i:i + per],
                                activity_policy, seed, weights)]
    records = [CharRecord(c, bm, pm) for c, bm, pm in zip(configs, behavs, ppas)]
    meta = {
        "provenance": provenance,
        "seed": str(seed),
        "policy": input_policy.describe(),
        "activity": activity_policy.describe(),
    }
    return CharDataset(kind, records, meta)


def sample_configs(kind: OperatorKind, n: int, seed: int = 0) -> list[AxoConfig]:
    """n distinct uniform configs, all-zeros excluded, deterministic per seed."""
    length = config_length(kind)
    space = (1 << length) - 1
    if n > space:
        raise CapacityError(f"cannot draw {n} distinct configs from {space}")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), 2)))
    chosen: dict[int, None] = {}
    while len(chosen) < n:
        want = max(64, n - len(chosen))
        if length < 63:
            batch = rng.integers(1, 1 << length, size=want, dtype=np.int64).tolist()
        else:
            # wide configs overflow int64; draw bit columns instead
            bits = rng.integers(0, 2, size=(want, length), dtype=np.uint8)
            weights = [1 << i for i in range(length)]
            batch = [sum(w for w, b in zip(weights, row) if b) for row in bits.tolist()]
        for u in batch:
            if u and u not in chosen:
                chosen[u] = None
                if len(chosen) == n:
                    break
    return [AxoConfig.from_uint(u, length) for u in chosen]


# -- CSV persistence -------------------------------------------------

def export_csv(dataset: CharDataset, path) -> None:
    lines = [preamble({"kind": dataset.kind.token, **dataset.meta}), CSV_HEADER]
    for r in dataset.records:
        row = [r.config.bitstring(), str(r.config_uint)]
        row += [fmt(getattr(r.behav, m)) for m in BEHAV_METRICS]
        row.append(str(r.ppa.lut_util))
        row += [fmt(getattr(r.ppa, m)) for m in PPA_METRICS[1:]]
        lines.append(",".join(row))
    write_lines(path, lines)


def import_csv(path) -> CharDataset:
    meta, raw, i = read_artifact(path)
    for key in ("kind", "provenance", "seed"):
        if key not in meta:
            raise SchemaError(f"{path}: preamble missing {key}=")
    if i >= len(raw) or raw[i] != CSV_HEADER:
        got = raw[i] if i < len(raw) else "<eof>"
        raise SchemaError(f"{path}: bad header line {got!r}")
    kind = parse_kind(meta.pop("kind"))
    length = config_length(kind)
    records = []
    for rowno, ln in enumerate(raw[i + 1:], start=i + 2):
        if not ln:
            continue
        parts = ln.split(",")
        if len(parts) != 11:
            raise SchemaError(f"{path}:{rowno}: expected 11 fields, got {len(parts)}")
        try:
            config = AxoConfig.from_bitstring(parts[0])
        except ValueError as e:
            raise SchemaError(f"{path}:{rowno}: {e}") from e
        if len(config) != length:
            raise SchemaError(
                f"{path}:{rowno}: config length {len(config)} does not match kind"
            )
        try:
            uint = int(parts[1])
            vals = [float(x) for x in parts[2:]]
            lut = int(parts[6])
        except ValueError as e:
            raise SchemaError(f"{path}:{rowno}: {e}") from e
        if uint != config.uint:
            raise SchemaError(f"{path}:{rowno}: config_uint {uint} != bits {parts[0]}")
        for name, v in zip(METRICS, vals):
            if not math.isfinite(v):
                raise SchemaError(f"{path}:{rowno}: non-finite {name} {v!r}")
        behav = BehavMetrics(*vals[:4])
        ppa = PpaMetrics(lut, *vals[5:])
        records.append(CharRecord(config, behav, ppa))
    return CharDataset(kind, records, meta)
