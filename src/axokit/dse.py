"""Constrained two-objective search over operator configurations.

A generational GA (binary tournament, single-point crossover, per-bit
mutation) ranks individuals by constrained domination: feasible before
infeasible, infeasible by normalized violation, feasible among themselves
by Pareto rank with crowding-distance ties.  The predicted Pareto front is
taken over the cumulative archive of every feasible individual evaluated,
and fronts are scored by the exact area of the union of dominated boxes
against a reference point.
"""

from __future__ import annotations

import concurrent.futures as cf
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


@dataclass
class Individual:
    config: AxoConfig
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
    axis; exact duplicates collapse to the lowest UINT."""
    pts = list(points)
    if not pts:
        return ParetoFront(())
    b = np.asarray([p[0] for p in pts], dtype=np.float64)
    p_ = np.asarray([p[1] for p in pts], dtype=np.float64)
    u = np.asarray([p[2] for p in pts], dtype=np.int64)
    order = np.lexsort((u, p_, b))
    kept = []
    best_p = np.inf
    for i in order:
        if p_[i] < best_p:
            kept.append((float(b[i]), float(p_[i]), int(u[i])))
            best_p = p_[i]
    return ParetoFront(tuple(kept))


def hypervolume_2d(front: ParetoFront, reference: tuple[float, float]) -> HypervolumeResult:
    """Exact area of the union of boxes [b_i, rb] x [p_i, rp].

    Points at or beyond the reference on either axis contribute nothing
    and are clipped out.
    """
    rb, rp = float(reference[0]), float(reference[1])
    pts = [(b, p) for b, p, _ in front.points if b < rb and p < rp]
    if not pts:
        return HypervolumeResult(0.0, (rb, rp), 0)
    pts.sort()
    # defensive re-extraction: keep the strictly descending ppa staircase
    stair = []
    best_p = np.inf
    for b, p in pts:
        if p < best_p:
            stair.append((b, p))
            best_p = p
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
    for i in front:
        pop[i].crowding = 0.0
    for key in ("behav", "ppa"):
        vals = np.asarray([getattr(pop[i], key) for i in front])
        order = np.argsort(vals, kind="stable")
        span = vals[order[-1]] - vals[order[0]]
        pop[front[order[0]]].crowding = np.inf
        pop[front[order[-1]]].crowding = np.inf
        if span <= 0:
            continue
        for j in range(1, len(front) - 1):
            i = front[order[j]]
            if np.isinf(pop[i].crowding):
                continue
            pop[i].crowding += (vals[order[j + 1]] - vals[order[j - 1]]) / span


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
           threads: int = 1):
    """Generational constrained GA.

    fitness(config) -> (behav, ppa) must be pure and deterministic.
    Returns (ppf, progress, feasible_counts): the Pareto front over every
    feasible individual ever evaluated, one HypervolumeResult per
    generation (index 0 = initial population) over that cumulative
    archive, and the distinct feasible config count alongside each entry.
    """
    L = config_length(kind)
    mut_p = params.mutation_prob_per_bit if params.mutation_prob_per_bit is not None \
        else 1.0 / L
    rng = np.random.default_rng(np.random.SeedSequence((int(params.seed), 8)))
    cache: dict[int, tuple[float, float]] = {}
    archive: list[tuple[float, float, int]] = []

    def evaluate(configs: list[AxoConfig]) -> list[Individual]:
        missing = []
        seen = set()
        for c in configs:
            if c.uint not in cache and c.uint not in seen:
                missing.append(c)
                seen.add(c.uint)
        if threads > 1 and len(missing) > 1:
            with cf.ThreadPoolExecutor(max_workers=threads) as pool:
                results = list(pool.map(fitness, missing))
        else:
            results = [fitness(c) for c in missing]
        for c, (bv, pv) in zip(missing, results):
            cache[c.uint] = (float(bv), float(pv))
        out = []
        for c in configs:
            bv, pv = cache[c.uint]
            ind = Individual(c, bv, pv, constraints.feasible(bv, pv))
            if ind.feasible:
                archive.append((bv, pv, c.uint))
            out.append(ind)
        return out

    def random_config() -> AxoConfig:
        bits = (rng.random(L) < 0.5).astype(np.uint8)
        bits = _fix_all_zeros(bits, rng)
        return AxoConfig(tuple(int(x) for x in bits))

    # initial population: ConSS pool joins random configs. A pool that fits
    # enters whole; an oversized pool contributes at most half the
    # population (predicted-front subset preferred, crowding-pruned) so the
    # random complement keeps early exploration alive.
    init: list[AxoConfig] = []
    if initial_pool is not None and len(initial_pool):
        pool_cfgs = list(initial_pool.configs)
        if len(pool_cfgs) > params.population_size:
            share = max(1, params.population_size // 2)
            if initial_pool.predicted:
                keys = list(initial_pool.predicted)
                bm = np.asarray(initial_pool.predicted[keys[0]], dtype=np.float64)
                pm = np.asarray(initial_pool.predicted[keys[1]], dtype=np.float64)
                mask = pareto_mask(bm, pm)
                front = np.flatnonzero(mask)
                if len(front) > share:
                    front = front[_spread_subset(bm[front], pm[front], share)]
                pool_cfgs = [pool_cfgs[i] for i in front]
            else:
                pool_cfgs = pool_cfgs[:share]
        init = pool_cfgs[: params.population_size]
    while len(init) < params.population_size:
        init.append(random_config())

    population = evaluate(init)
    progress: list[HypervolumeResult] = []
    feasible_counts: list[int] = []
    ref = (constraints.b_max, constraints.p_max)

    def record_progress():
        progress.append(hypervolume_2d(pareto_front(archive), ref))
        feasible_counts.append(len({u for _, _, u in archive}))

    fronts = _rank_population(population, constraints)
    for front in fronts:
        _crowding(population, front)
    record_progress()

    for _ in range(params.max_generations):
        children: list[AxoConfig] = []
        while len(children) < params.population_size:
            p1 = _tournament(population, rng, params.tournament_k)
            p2 = _tournament(population, rng, params.tournament_k)
            b1 = np.asarray(p1.config.bits, dtype=np.uint8)
            b2 = np.asarray(p2.config.bits, dtype=np.uint8)
            if L > 1 and rng.random() < params.crossover_prob:
                cut = int(rng.integers(1, L))
                c1 = np.concatenate([b1[:cut], b2[cut:]])
                c2 = np.concatenate([b2[:cut], b1[cut:]])
            else:
                c1, c2 = b1.copy(), b2.copy()
            for c in (c1, c2):
                flip = rng.random(L) < mut_p
                c ^= flip.astype(np.uint8)
                c = _fix_all_zeros(c, rng)
                if len(children) < params.population_size:
                    children.append(AxoConfig(tuple(int(x) for x in c)))
        offspring = evaluate(children)
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

    return pareto_front(archive), progress, feasible_counts


def validate_front(ppf: ParetoFront, kind: OperatorKind, constraints: ConstraintSpec,
                   input_policy, activity_policy: ActivityPolicy = ActivityPolicy(),
                   seed: int = 0, weights: ProxyWeights = ProxyWeights(),
                   known: CharDataset | None = None, threads: int = 1):
    """Ground-truth re-characterization of a predicted front.

    Returns (vpf, validation_count, characterized): the non-dominated
    feasible subset under true metrics, the number of configs that had to
    be newly characterized (absent from ``known``), and the full
    re-characterized dataset.
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
                                  seed=seed, weights=weights, threads=threads)
        fresh = ds.by_uint()
    records = [known_map[c.uint] if c.uint in known_map else fresh[c.uint] for c in configs]
    char_ds = CharDataset(kind, records, {
        "provenance": "proxy_model",
        "seed": str(seed),
        "validated": str(validation_count),
    })
    feas_pts = [
        (r.metric(constraints.behav_metric), r.metric(constraints.ppa_metric), r.config_uint)
        for r in records
        if constraints.feasible(r.metric(constraints.behav_metric),
                                r.metric(constraints.ppa_metric))
    ]
    return pareto_front(feas_pts), validation_count, char_ds


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
