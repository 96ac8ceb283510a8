"""Constrained two-objective search over operator configurations.

A generational GA (binary tournament, single-point crossover, per-bit
mutation) ranks individuals by constrained domination: feasible before
infeasible, infeasible by normalized violation, feasible among themselves
by Pareto rank with crowding-distance ties.  The predicted Pareto front is
taken over the cumulative archive of every feasible individual evaluated,
and fronts are scored by the exact area of the union of dominated boxes
against a reference point.

Every non-empty ``ParetoFront`` is built by ``pareto_front``, the one
non-dominated filter (``conss.pareto_mask``) plus the lowest-UINT collapse
of exact duplicates, so it holds finite, mutually non-dominated points in
ascending behav order; ``hypervolume_2d`` relies on that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .characterize import (
    ActivityPolicy,
    CharDataset,
    CharRecord,
    ProxyWeights,
    characterize_dataset,
)
from .conss import ConssPool, ConstraintSpec, pareto_mask
from .errors import SchemaError
from .operators import AxoConfig, OperatorKind, config_length


@dataclass(frozen=True)
class GaParams:
    population_size: int = 100
    max_generations: int = 250
    tournament_k: int = 2
    crossover_prob: float = 0.9
    mutation_prob_per_bit: float | None = None  # None = 1/L
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if not 0 <= self.crossover_prob <= 1:
            raise ValueError("crossover_prob must be in [0,1]")
        if self.max_generations < 0 or self.max_generations > 250:
            raise ValueError("max_generations must be in [0, 250]")


@dataclass(eq=False)
class Individual:
    bits: np.ndarray  # (L,) uint8 config row
    uint: int
    behav: float
    ppa: float
    feasible: bool
    rank: int = -1
    crowding: float = 0.0


@dataclass(frozen=True)
class ParetoFront:
    """Mutually non-dominated (behav, ppa, config_uint), behav ascending."""

    points: tuple[tuple[float, float, int], ...]

    def __len__(self) -> int:
        return len(self.points)

    def behav(self) -> np.ndarray:
        return np.asarray([p[0] for p in self.points])

    def ppa(self) -> np.ndarray:
        return np.asarray([p[1] for p in self.points])

    def uints(self) -> list[int]:
        return [p[2] for p in self.points]


@dataclass(frozen=True)
class HypervolumeResult:
    value: float
    reference: tuple[float, float]
    front_size: int


def pareto_front(points) -> ParetoFront:
    """Non-dominated subset under (<=, <=) with strict improvement on one
    axis, through ``pareto_mask``; exact duplicates collapse to the lowest
    UINT, and UINTs stay exact Python ints of any width."""
    pts = list(points)
    b = [float(pt[0]) for pt in pts]
    p = [float(pt[1]) for pt in pts]
    kept = sorted(np.flatnonzero(pareto_mask(b, p)).tolist(), key=lambda i: (b[i], pts[i][2]))
    # survivors that share a behav are exact duplicates; the first has the lowest UINT
    first = [i for j, i in enumerate(kept) if j == 0 or b[i] != b[kept[j - 1]]]
    return ParetoFront(tuple((b[i], p[i], int(pts[i][2])) for i in first))


def hypervolume_2d(front: ParetoFront, reference: tuple[float, float]) -> HypervolumeResult:
    """Exact area of the union of boxes [b_i, rb] x [p_i, rp].

    ``front`` must come from ``pareto_front``: finite points, behav
    strictly ascending, ppa strictly descending.  Points at or beyond the
    reference on either axis contribute nothing and are clipped out, which
    leaves a staircase.
    """
    rb, rp = float(reference[0]), float(reference[1])
    stair = [(b, p) for b, p, _ in front.points if b < rb and p < rp]
    area = 0.0
    for i, (b, p) in enumerate(stair):
        b_next = stair[i + 1][0] if i + 1 < len(stair) else rb
        area += (b_next - b) * (rp - p)
    return HypervolumeResult(float(area), (rb, rp), len(stair))


def _rank_population(pop: list[Individual], spec: ConstraintSpec) -> list[list[int]]:
    """Fast non-dominated sort under constrained domination."""
    n = len(pop)
    feas = np.asarray([ind.feasible for ind in pop])
    b = np.asarray([ind.behav for ind in pop])
    p = np.asarray([ind.ppa for ind in pop])
    viol = np.asarray([0.0 if ind.feasible else spec.violation(ind.behav, ind.ppa)
                       for ind in pop])
    # D[i, j] = i dominates j
    both_feas = feas[:, None] & feas[None, :]
    pareto = ((b[:, None] <= b[None, :]) & (p[:, None] <= p[None, :])
              & ((b[:, None] < b[None, :]) | (p[:, None] < p[None, :])))
    D = (feas[:, None] & ~feas[None, :]) \
        | (~feas[:, None] & ~feas[None, :] & (viol[:, None] < viol[None, :])) \
        | (both_feas & pareto)
    dominated_count = D.sum(axis=0).astype(np.int64)
    fronts = []
    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        current = np.nonzero(remaining & (dominated_count == 0))[0]
        if current.size == 0:  # numeric pathology guard
            current = np.nonzero(remaining)[0]
        fronts.append(current.tolist())
        remaining[current] = False
        dominated_count = dominated_count - D[current].sum(axis=0)
    for r, front in enumerate(fronts):
        for i in front:
            pop[i].rank = r
    return fronts


def _crowding(pop: list[Individual], front: list[int]) -> None:
    if len(front) <= 2:
        for i in front:
            pop[i].crowding = np.inf
        return
    crowd = np.zeros(len(front))
    for key in ("behav", "ppa"):
        vals = np.asarray([getattr(pop[i], key) for i in front])
        order = np.argsort(vals, kind="stable")
        crowd[order[[0, -1]]] = np.inf
        span = vals[order[-1]] - vals[order[0]]
        if span <= 0:
            continue
        mid = order[1:-1]
        live = ~np.isinf(crowd[mid])
        gap = vals[order[2:]] - vals[order[:-2]]
        crowd[mid[live]] += gap[live] / span
    for i, c in zip(front, crowd.tolist()):
        pop[i].crowding = c


def _tournament(pop: list[Individual], rng: np.random.Generator, k: int) -> Individual:
    picks = rng.integers(0, len(pop), size=k)
    best = pop[picks[0]]
    for idx in picks[1:]:
        c = pop[idx]
        if c.rank < best.rank or (c.rank == best.rank and c.crowding > best.crowding):
            best = c
    return best


def _fix_all_zeros(bits: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    # the all-zeros config is outside the design space
    if not bits.any():
        bits = bits.copy()
        bits[int(rng.integers(bits.size))] = 1
    return bits


def _uints(rows: np.ndarray) -> list[int]:
    """UINT of each (L,) uint8 row, bit 0 least significant; exact for any L."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    raw, w = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(raw[i * w:(i + 1) * w], "little") for i in range(len(rows))]


def _per_config(fitness):
    """The batch contract over a per-config ``fitness(config) -> (behav, ppa)``,
    called once per row in row order."""
    def batch_fitness(bits: np.ndarray):
        results = [fitness(AxoConfig(tuple(row))) for row in bits.tolist()]
        return ([float(b) for b, _ in results], [float(p) for _, p in results])

    return batch_fitness


def _spread_subset(b: np.ndarray, p: np.ndarray, k: int) -> np.ndarray:
    """Indices of k mutually non-dominated points spread by crowding distance.

    Extremes carry infinite crowding so they always survive the prune.
    """
    order = np.lexsort((p, b))
    bs, ps = b[order], p[order]
    n = len(order)
    crowd = np.full(n, np.inf)
    if n > 2:
        span_b = bs[-1] - bs[0]
        span_p = ps[0] - ps[-1]
        crowd[1:-1] = (bs[2:] - bs[:-2]) / (span_b if span_b > 0 else 1.0) \
            + (ps[:-2] - ps[2:]) / (span_p if span_p > 0 else 1.0)
    sel = np.argsort(-crowd, kind="stable")[:k]
    return np.sort(order[sel])


def run_ga(kind: OperatorKind, fitness, constraints: ConstraintSpec,
           params: GaParams = GaParams(), initial_pool: ConssPool | None = None,
           threads: int = 1, *, batch: bool = False):
    """Generational constrained GA.

    With ``batch=True``, ``fitness(bits)`` takes an (n, L) uint8 array of
    config rows (bit 0 first) and returns (behav, ppa), each of length n;
    it is called once per generation, on the configs not evaluated before.
    Otherwise ``fitness(config) -> (behav, ppa)`` is called once per new
    AxoConfig.  Either way it must be pure and deterministic, and the run
    does not depend on how configs are batched.  ``threads`` is accepted
    for compatibility and has no effect.

    Returns (ppf, progress, feasible_counts): the Pareto front over every
    feasible individual ever evaluated, one HypervolumeResult per
    generation (index 0 = initial population) over that cumulative
    archive, and the distinct feasible config count alongside each entry.
    """
    L = config_length(kind)
    mut_p = params.mutation_prob_per_bit if params.mutation_prob_per_bit is not None \
        else 1.0 / L
    if not batch:
        fitness = _per_config(fitness)
    rng = np.random.default_rng(np.random.SeedSequence((int(params.seed), 8)))
    cache: dict[int, tuple[float, float]] = {}
    # feasible points evaluated since the last progress record; folded into
    # the running front, which equals the front of the whole archive because
    # dominance (with ties broken by the lowest UINT) is transitive
    archive: list[tuple[float, float, int]] = []
    ppf = ParetoFront(())
    feasible_uints: set[int] = set()

    def evaluate(rows: np.ndarray) -> list[Individual]:
        uints = _uints(rows)
        missing: dict[int, int] = {}  # uint -> first row holding it
        for i, u in enumerate(uints):
            if u not in cache and u not in missing:
                missing[u] = i
        if missing:
            bv, pv = fitness(rows[list(missing.values())])
            cache.update(zip(missing, zip(np.asarray(bv, dtype=np.float64).tolist(),
                                          np.asarray(pv, dtype=np.float64).tolist())))
        out = []
        for row, u in zip(rows, uints):
            bv, pv = cache[u]
            ind = Individual(row, u, bv, pv, constraints.feasible(bv, pv))
            if ind.feasible:
                archive.append((bv, pv, u))
            out.append(ind)
        return out

    def random_config() -> np.ndarray:
        bits = (rng.random(L) < 0.5).astype(np.uint8)
        return _fix_all_zeros(bits, rng)

    # initial population: ConSS pool joins random configs. A pool that fits
    # enters whole; an oversized pool contributes at most half the
    # population (predicted-front subset preferred, crowding-pruned) so the
    # random complement keeps early exploration alive.
    init: list[np.ndarray] = []
    if initial_pool is not None and len(initial_pool):
        pool_cfgs = list(initial_pool.configs)
        if len(pool_cfgs) > params.population_size:
            share = max(1, params.population_size // 2)
            if initial_pool.predicted:
                bm, pm = (_pool_predictions(initial_pool, m)
                          for m in (constraints.behav_metric, constraints.ppa_metric))
                mask = pareto_mask(bm, pm)
                front = np.flatnonzero(mask)
                if len(front) > share:
                    front = front[_spread_subset(bm[front], pm[front], share)]
                pool_cfgs = [pool_cfgs[i] for i in front]
            else:
                pool_cfgs = pool_cfgs[:share]
        init = [np.asarray(c.bits, dtype=np.uint8) for c in pool_cfgs[: params.population_size]]
    while len(init) < params.population_size:
        init.append(random_config())

    population = evaluate(np.stack(init))
    progress: list[HypervolumeResult] = []
    feasible_counts: list[int] = []
    ref = (constraints.b_max, constraints.p_max)

    def record_progress():
        nonlocal ppf
        ppf = pareto_front(list(ppf.points) + archive)
        feasible_uints.update(u for _, _, u in archive)
        archive.clear()
        progress.append(hypervolume_2d(ppf, ref))
        feasible_counts.append(len(feasible_uints))

    fronts = _rank_population(population, constraints)
    for front in fronts:
        _crowding(population, front)
    record_progress()

    for _ in range(params.max_generations):
        children: list[np.ndarray] = []
        while len(children) < params.population_size:
            b1 = _tournament(population, rng, params.tournament_k).bits
            b2 = _tournament(population, rng, params.tournament_k).bits
            if L > 1 and rng.random() < params.crossover_prob:
                cut = int(rng.integers(1, L))
                c1 = np.concatenate([b1[:cut], b2[cut:]])
                c2 = np.concatenate([b2[:cut], b1[cut:]])
            else:
                c1, c2 = b1.copy(), b2.copy()
            for c in (c1, c2):
                c ^= rng.random(L) < mut_p
                c = _fix_all_zeros(c, rng)
                if len(children) < params.population_size:
                    children.append(c)
        offspring = evaluate(np.stack(children))
        combined = population + offspring
        fronts = _rank_population(combined, constraints)
        survivors: list[Individual] = []
        for front in fronts:
            _crowding(combined, front)
            members = [combined[i] for i in front]
            if len(survivors) + len(members) <= params.population_size:
                survivors.extend(members)
            else:
                members.sort(key=lambda ind: -ind.crowding)
                survivors.extend(members[: params.population_size - len(survivors)])
                break
        population = survivors
        record_progress()

    return ppf, progress, feasible_counts


def _pool_predictions(pool: ConssPool, metric: str) -> np.ndarray:
    if metric not in pool.predicted:
        raise SchemaError(f"initial pool has predictions for {', '.join(sorted(pool.predicted))}"
                          f", not for the search metric {metric}")
    return np.asarray(pool.predicted[metric], dtype=np.float64)


def feasible_front(ds: CharDataset, constraints: ConstraintSpec) -> ParetoFront:
    """Pareto front of the records of ``ds`` that satisfy ``constraints``."""
    bm, pm = constraints.behav_metric, constraints.ppa_metric
    return pareto_front([(r.metric(bm), r.metric(pm), r.config_uint) for r in ds.records
                         if constraints.feasible(r.metric(bm), r.metric(pm))])


def validate_front(ppf: ParetoFront, kind: OperatorKind, constraints: ConstraintSpec,
                   input_policy, activity_policy: ActivityPolicy = ActivityPolicy(),
                   seed: int = 0, weights: ProxyWeights = ProxyWeights(),
                   known: CharDataset | None = None, threads: int = 1):
    """Ground-truth re-characterization of a predicted front.

    Returns (vpf, validation_count, characterized): the non-dominated
    feasible subset under true metrics, the number of configs that had to
    be newly characterized (absent from ``known``), and the full
    re-characterized dataset.  ``threads`` is accepted for compatibility
    and has no effect.
    """
    length = config_length(kind)
    configs = [AxoConfig.from_uint(u, length) for u in ppf.uints()]
    if not configs:
        empty = CharDataset(kind, [], {"provenance": "proxy_model", "seed": str(seed)})
        return ParetoFront(()), 0, empty
    known_map = known.by_uint() if known is not None else {}
    new_configs = [c for c in configs if c.uint not in known_map]
    validation_count = len(new_configs)
    fresh: dict[int, CharRecord] = {}
    if new_configs:
        ds = characterize_dataset(kind, new_configs, input_policy, activity_policy,
                                  seed=seed, weights=weights)
        fresh = ds.by_uint()
    records = [known_map[c.uint] if c.uint in known_map else fresh[c.uint] for c in configs]
    char_ds = CharDataset(kind, records, {
        "provenance": "proxy_model",
        "seed": str(seed),
        "validated": str(validation_count),
    })
    return feasible_front(char_ds, constraints), validation_count, char_ds


def compare_hypervolumes(runs: dict[str, ParetoFront],
                         constraints: ConstraintSpec) -> list[tuple[str, float, float]]:
    """(name, hypervolume, ratio-to-Train) rows; reference = constraint box."""
    ref = (constraints.b_max, constraints.p_max)
    hv = {name: hypervolume_2d(front, ref).value for name, front in runs.items()}
    base = hv.get("train", 0.0)
    return [
        (name, hv[name], hv[name] / base if base > 0 else float("nan"))
        for name in runs
    ]
