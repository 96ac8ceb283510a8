"""Behavioral error and proxy-PPA characterization of operator configs.

BEHAV metrics come from simulating the configured operator against exact
arithmetic, exhaustively or over seeded uniform samples.  PPA metrics come
from a declared proxy cost model: LUT utilization is the config popcount,
critical path is a weighted longest path over the cells still switching,
and power is the mean toggle count per cycle under a random activity
stream.  Real synthesis numbers can be imported through the same CSV
schema (provenance ``imported_external``) and flow through every
downstream module unchanged.
"""

from __future__ import annotations

import concurrent.futures as cf
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

BEHAV_METRICS = ("avg_abs_err", "avg_abs_rel_err", "max_abs_err", "err_rate")
PPA_METRICS = ("lut_util", "cpd_proxy", "power_proxy", "pdp", "pdplut")
METRICS = BEHAV_METRICS + PPA_METRICS

CSV_HEADER = "config_bits,config_uint," + ",".join(METRICS)

PROVENANCE_PROXY = "proxy_model"
PROVENANCE_IMPORTED = "imported_external"

# RNG stream tags; every per-record stream is SeedSequence((seed, tag, uint))
# so results are independent of evaluation order and thread count.
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
        return np.asarray([r.config_uint for r in self.records], dtype=np.int64)

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


def _behav_from_outputs(exact: np.ndarray, out: np.ndarray) -> BehavMetrics:
    err = exact - out
    abs_err = np.abs(err).astype(np.float64)
    denom = np.maximum(1.0, np.abs(exact).astype(np.float64))
    return BehavMetrics(
        avg_abs_err=float(abs_err.mean()),
        avg_abs_rel_err=float((abs_err / denom).mean()),
        max_abs_err=float(abs_err.max()),
        err_rate=float(np.count_nonzero(err) / err.size),
    )


def behav_characterize(kind: OperatorKind, config: AxoConfig, input_policy,
                       seed: int = 0, netlist: OperatorNetlist | None = None) -> BehavMetrics:
    """Error metrics of one config against exact arithmetic.

    Relative error uses denominator max(1, |exact|) so zero products are
    well defined.
    """
    net = netlist if netlist is not None else build_netlist(kind)
    net.check_config(config)
    if isinstance(input_policy, Exhaustive):
        if 2 * kind.width > EXHAUSTIVE_INPUT_BITS:
            raise CapacityError(
                f"exhaustive characterization needs {2 * kind.width} input bits "
                f"(limit {EXHAUSTIVE_INPUT_BITS}); use Sampled"
            )
        a, b = _operand_grid(kind)
    elif isinstance(input_policy, Sampled):
        eff = input_policy.seed if input_policy.seed is not None else seed
        rng = _record_rng(eff, _TAG_BEHAV, config)
        lo, hi = kind.operand_range()
        a = rng.integers(lo, hi, size=input_policy.n, dtype=np.int64)
        b = rng.integers(lo, hi, size=input_policy.n, dtype=np.int64)
    else:
        raise TypeError(f"unknown input policy {input_policy!r}")
    out = simcore.evaluate_batch(net, config, a, b)
    return _behav_from_outputs(kind.exact(a, b), out)


def cpd_proxy(net: OperatorNetlist, config: AxoConfig,
              weights: ProxyWeights = ProxyWeights()) -> float:
    """Weighted longest path over cells still switching under ``config``.

    Constants are folded: a removed LUT and the carry mux it gates emit
    constant 0, so they neither delay nor extend any path; cells with a
    constant output contribute 0 regardless of their inputs.
    """
    net.check_config(config)
    bits = config.bits
    # const[s] in {0, 1, None}; arr[s] = arrival time, 0 for constants/inputs
    const: dict[int, int | None] = {0: 0, 1: 1}
    arr = np.zeros(net.n_signals, dtype=np.float64)
    for s in net.a_signals + net.b_signals:
        const[s] = None

    def fold_and(s0, s1):
        c0, c1 = const[s0], const[s1]
        if c0 == 0 or c1 == 0:
            return 0, 0.0
        if c0 is not None and c1 is not None:
            return c0 & c1, 0.0
        if c0 == 1:
            return None, arr[s1]
        if c1 == 1:
            return None, arr[s0]
        return None, max(arr[s0], arr[s1])

    for c in net.cells:
        w = weights.lut_delay if c.kind == "Lut" else weights.carry_delay
        gate_on = c.config_index < 0 or bits[c.config_index] == 1
        if c.kind == "Lut" and not gate_on:
            const[c.out] = 0
            continue
        if c.op == OP_BW:
            ca, ta = fold_and(c.inputs[0], c.inputs[1])
            cb, tb = fold_and(c.inputs[2], c.inputs[3])
            neg = c.flags & 1 ^ (c.flags >> 1) & 1
            if ca is not None and cb is not None:
                const[c.out] = ca ^ cb ^ neg
            else:
                const[c.out] = None
                arr[c.out] = w + max(ta, tb)
        elif c.op == OP_MUX:
            sel, chain = c.inputs[0], c.inputs[1]
            if gate_on:
                cd, td = fold_and(c.inputs[2], c.inputs[3])
                if cd is not None:
                    cd ^= c.flags & 1
            else:
                cd, td = 0, 0.0
            cs = const[sel]
            if cs == 1:
                if const[chain] is not None:
                    const[c.out] = const[chain]
                else:
                    const[c.out] = None
                    arr[c.out] = w + arr[chain]
            elif cs == 0:
                const[c.out] = cd
                if cd is None:
                    arr[c.out] = w + td
            else:
                if const[chain] is not None and cd is not None and const[chain] == cd:
                    const[c.out] = cd
                else:
                    const[c.out] = None
                    terms = [arr[sel]]
                    if const[chain] is None:
                        terms.append(arr[chain])
                    if cd is None:
                        terms.append(td)
                    arr[c.out] = w + max(terms)
        else:  # OP_XOR2
            s0, s1 = c.inputs
            c0, c1 = const[s0], const[s1]
            if c0 is not None and c1 is not None:
                const[c.out] = c0 ^ c1
            else:
                const[c.out] = None
                if c0 is not None:
                    arr[c.out] = w + arr[s1]
                elif c1 is not None:
                    arr[c.out] = w + arr[s0]
                else:
                    arr[c.out] = w + max(arr[s0], arr[s1])
    return float(max((arr[s] for s in net.out_signals), default=0.0))


def ppa_characterize(net: OperatorNetlist, config: AxoConfig, activity_policy: ActivityPolicy,
                     seed: int = 0, weights: ProxyWeights = ProxyWeights()) -> PpaMetrics:
    """Proxy cost metrics of one config.

    power_proxy is the mean toggle count per cycle over all cell outputs
    (constant outputs never toggle) under ``cycles`` consecutive random
    vectors; pdp and pdplut follow by the declared identities.
    """
    net.check_config(config)
    if activity_policy.cycles < 2:
        raise ValueError("activity policy needs at least 2 cycles")
    eff = activity_policy.seed if activity_policy.seed is not None else seed
    rng = _record_rng(eff, _TAG_ACTIVITY, config)
    lo, hi = net.kind.operand_range()
    a = rng.integers(lo, hi, size=activity_policy.cycles, dtype=np.int64)
    b = rng.integers(lo, hi, size=activity_policy.cycles, dtype=np.int64)
    _, toggles = simcore.evaluate_batch(net, config, a, b, count_toggles=True)
    power = toggles / (activity_policy.cycles - 1) * weights.unit_energy
    cpd = cpd_proxy(net, config, weights)
    lut = config.popcount
    return PpaMetrics(
        lut_util=lut,
        cpd_proxy=cpd,
        power_proxy=power,
        pdp=power * cpd,
        pdplut=power * cpd * lut,
    )


def characterize_dataset(kind: OperatorKind, configs: Sequence[AxoConfig],
                         input_policy, activity_policy: ActivityPolicy = ActivityPolicy(),
                         seed: int = 0, weights: ProxyWeights = ProxyWeights(),
                         threads: int = 1,
                         provenance: str = PROVENANCE_PROXY) -> CharDataset:
    """Characterize many configs; order preserved, bit-identical at any
    thread count (per-record RNG streams never depend on scheduling)."""
    configs = list(configs)
    if not configs:
        raise ValueError("config list is empty")
    seen = set()
    for c in configs:
        if c.uint in seen:
            raise DuplicateConfigError(f"duplicate config_uint {c.uint}")
        seen.add(c.uint)
    net = build_netlist(kind)

    def one(config: AxoConfig) -> CharRecord:
        behav = behav_characterize(kind, config, input_policy, seed=seed, netlist=net)
        ppa = ppa_characterize(net, config, activity_policy, seed=seed, weights=weights)
        return CharRecord(config, behav, ppa)

    if threads > 1:
        with cf.ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(one, configs))
    else:
        records = [one(c) for c in configs]
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
        behav = BehavMetrics(*vals[:4])
        ppa = PpaMetrics(lut, *vals[5:])
        records.append(CharRecord(config, behav, ppa))
    return CharDataset(kind, records, meta)
