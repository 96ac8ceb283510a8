"""Pareto fronts, exact hypervolume, and the constrained GA."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axokit import AxoConfig, OperatorKind, Family, SchemaError, enumerate_configs
from axokit.characterize import ActivityPolicy, Exhaustive, Sampled, characterize_dataset
from axokit.conss import ConssPool, ConstraintSpec, derive_constraints
from axokit.dse import (
    GaParams,
    Individual,
    ParetoFront,
    _crowding,
    _spread_subset,
    compare_hypervolumes,
    hypervolume_2d,
    pareto_front,
    run_ga,
    validate_front,
)
from axokit.forest import ForestParams, predict_metric, train_regressor

FREE = ConstraintSpec(1e9, 1e9, 1.0, "behav", "ppa", "test")


def brute_front(pts):
    keep = []
    for b, p, u in pts:
        if not any(
            b2 <= b and p2 <= p and (b2 < b or p2 < p) for b2, p2, _ in pts
        ):
            keep.append((b, p, u))
    # duplicates collapse to the lowest uint
    out = {}
    for b, p, u in keep:
        out.setdefault((b, p), u)
        out[(b, p)] = min(out[(b, p)], u)
    return sorted((b, p, u) for (b, p), u in out.items())


def test_pareto_front_brute_force(rng):
    for trial in range(10):
        pts = [(float(b), float(p), i) for i, (b, p) in enumerate(rng.random((30, 2)))]
        # inject exact duplicates to exercise the tie collapse
        pts.append((pts[0][0], pts[0][1], 900 + trial))
        got = pareto_front(pts)
        assert list(got.points) == brute_front(pts)
        b = got.behav()
        assert np.all(np.diff(b) > 0)
        assert np.all(np.diff(got.ppa()) < 0)


def test_pareto_front_empty():
    assert len(pareto_front([])) == 0


def test_hypervolume_single_point():
    hv = hypervolume_2d(ParetoFront(((0.2, 0.4, 1),)), (1.0, 1.0))
    assert hv.value == pytest.approx(0.48, abs=1e-15)
    assert hv.front_size == 1


def test_hypervolume_union_not_sum():
    front = pareto_front([(0.1, 0.8, 1), (0.5, 0.3, 2)])
    hv = hypervolume_2d(front, (1.0, 1.0))
    # union of the two boxes; the 0.10 overlap counts once
    assert hv.value == pytest.approx(0.43, abs=1e-15)


def test_hypervolume_clips_outside_reference():
    assert hypervolume_2d(ParetoFront(((1.2, 0.5, 1),)), (1.0, 1.0)).value == 0
    assert hypervolume_2d(ParetoFront(((0.5, 1.0, 1),)), (1.0, 1.0)).value == 0
    assert hypervolume_2d(ParetoFront(()), (1.0, 1.0)).value == 0


def test_hypervolume_monte_carlo_oracle():
    rng = np.random.default_rng(7)
    n = 100_000
    sb = rng.random(n)
    sp = rng.random(n)
    for _ in range(50):
        m = int(rng.integers(2, 15))
        pts = [(float(b), float(p), i) for i, (b, p) in enumerate(rng.random((m, 2)))]
        front = pareto_front(pts)
        hv = hypervolume_2d(front, (1.0, 1.0)).value
        dom = np.zeros(n, dtype=bool)
        for b, p, _ in front.points:
            dom |= (sb >= b) & (sp >= p)
        assert hv == pytest.approx(dom.mean(), abs=1e-2)


unit = st.floats(min_value=0, max_value=1, allow_nan=False, width=32)


@settings(max_examples=100)
@given(st.lists(st.tuples(unit, unit), min_size=1, max_size=10), unit, unit)
def test_hypervolume_monotone_in_points(pts, nb, np_):
    base = pareto_front([(b, p, i) for i, (b, p) in enumerate(pts)])
    grown = pareto_front([(b, p, i) for i, (b, p) in enumerate(pts + [(nb, np_)])])
    ref = (1.0, 1.0)
    assert hypervolume_2d(grown, ref).value >= hypervolume_2d(base, ref).value - 1e-12


# a coarse grid forces ties and equal (b, p) pairs under different uints
grid_point = st.tuples(st.integers(0, 4).map(float), st.integers(0, 4).map(float),
                       st.integers(0, 20))
coarse = st.integers(0, 3).map(float)


@settings(max_examples=200)
@given(st.lists(st.lists(grid_point, max_size=10), max_size=6))
def test_running_front_matches_whole_archive(batches):
    # run_ga folds each generation's points into the previous front
    front = ParetoFront(())
    for batch in batches:
        front = pareto_front(list(front.points) + batch)
    assert front == pareto_front([pt for batch in batches for pt in batch])


def old_pareto_front(points):
    """The sort-and-scan loop that pareto_front replaced (UINTs cast to int64)."""
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


def old_hypervolume_2d(front, reference):
    """hypervolume_2d when it still re-sorted and re-extracted the staircase."""
    rb, rp = float(reference[0]), float(reference[1])
    pts = sorted((b, p) for b, p, _ in front.points if b < rb and p < rp)
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
    return float(area), len(stair)


# finite coordinates: grid ties, both signed zeros, and arbitrary floats
finite = st.one_of(coarse, st.sampled_from([0.0, -0.0]),
                   st.floats(allow_nan=False, allow_infinity=False))
finite_point = st.tuples(finite, finite, st.integers(0, 20))


def with_duplicates(pts, dups):
    """``pts`` plus exact (behav, ppa) copies of some of them under new UINTs."""
    return pts + [(*pts[i % len(pts)][:2], u) for i, u in dups] if pts else pts


duplicates = st.lists(st.tuples(st.integers(0, 29), st.integers(0, 20)), max_size=6)


@settings(max_examples=400)
@given(st.lists(finite_point, max_size=30), duplicates)
def test_pareto_front_matches_old_loop(pts, dups):
    pts = with_duplicates(pts, dups)
    got, want = pareto_front(pts), old_pareto_front(pts)
    # bytes, so that -0.0 and 0.0 count as different
    assert [np.float64(x).tobytes() for pt in got.points for x in pt[:2]] == \
        [np.float64(x).tobytes() for pt in want.points for x in pt[:2]]
    assert got.uints() == want.uints()


wide_uint = st.one_of(st.integers(0, 20), st.integers(2**63, 2**80))


@settings(max_examples=200)
@given(st.lists(st.tuples(st.one_of(coarse, unit), st.one_of(coarse, unit), wide_uint),
                max_size=20), duplicates)
def test_pareto_front_keeps_wide_uints_exact(pts, dups):
    pts = with_duplicates(pts, dups)
    got = pareto_front(pts)
    assert list(got.points) == brute_front(pts)
    assert all(type(u) is int for u in got.uints())


@settings(max_examples=400)
@given(st.lists(finite_point, max_size=30), duplicates, st.tuples(finite, finite))
def test_hypervolume_matches_re_extracting_version(pts, dups, ref):
    front = pareto_front(with_duplicates(pts, dups))
    got = hypervolume_2d(front, ref)
    value, size = old_hypervolume_2d(front, ref)
    assert np.float64(got.value).tobytes() == np.float64(value).tobytes()
    assert got.front_size == size


def test_spread_subset_keeps_extremes():
    b = np.array([0.0, 0.1, 0.2, 0.5, 0.9])
    p = np.array([0.9, 0.6, 0.5, 0.2, 0.0])
    sel = _spread_subset(b, p, 2)
    assert sel.tolist() == [0, 4]
    assert _spread_subset(b, p, 10).tolist() == [0, 1, 2, 3, 4]
    three = _spread_subset(b, p, 3).tolist()
    assert 0 in three and 4 in three and len(three) == 3


def test_ga_params_validation():
    with pytest.raises(ValueError):
        GaParams(population_size=1)
    with pytest.raises(ValueError):
        GaParams(crossover_prob=1.5)
    with pytest.raises(ValueError):
        GaParams(max_generations=251)
    with pytest.raises(ValueError):
        GaParams(max_generations=-1)


@pytest.fixture(scope="module")
def adder4_kind():
    return OperatorKind(Family.UNSIGNED_ADDER, 4)


def test_ga_finds_min_popcount(adder4_kind):
    fitness = lambda c: (float(c.popcount), 1.0)
    spec = ConstraintSpec(10.0, 10.0, 1.0, "behav", "ppa", "test")
    params = GaParams(population_size=8, max_generations=10, seed=0)
    ppf, progress, counts = run_ga(adder4_kind, fitness, spec, params)
    assert ppf.points == ((1.0, 1.0, 1),)
    assert len(progress) == 11
    assert len(counts) == 11


def test_ga_deterministic(adder4_kind):
    fitness = lambda c: (c.uint / 16.0, c.popcount / 4.0)
    spec = ConstraintSpec(0.9, 0.9, 1.0, "behav", "ppa", "test")
    params = GaParams(population_size=10, max_generations=8, seed=3)
    r1 = run_ga(adder4_kind, fitness, spec, params)
    r2 = run_ga(adder4_kind, fitness, spec, params, threads=4)
    assert r1[0].points == r2[0].points
    assert [h.value for h in r1[1]] == [h.value for h in r2[1]]
    assert r1[2] == r2[2]


def test_ga_progress_monotone(adder4_kind):
    fitness = lambda c: (c.uint / 16.0, (16 - c.uint) / 16.0)
    spec = ConstraintSpec(0.8, 0.95, 1.0, "behav", "ppa", "test")
    ppf, progress, counts = run_ga(adder4_kind, fitness, spec,
                                   GaParams(population_size=6, max_generations=12, seed=1))
    vals = [h.value for h in progress]
    assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
    assert all(b >= a for a, b in zip(counts, counts[1:]))
    for b, p, _ in ppf.points:
        assert spec.feasible(b, p)


def test_ga_respects_constraints(adder4_kind):
    fitness = lambda c: (float(c.popcount), float(c.popcount))
    spec = ConstraintSpec(2.0, 2.0, 1.0, "behav", "ppa", "test")
    ppf, _, counts = run_ga(adder4_kind, fitness, spec,
                            GaParams(population_size=8, max_generations=5, seed=0))
    assert all(b <= 2.0 and p <= 2.0 for b, p, _ in ppf.points)
    assert counts[-1] >= 1


def staircase_fitness(c):
    return (c.uint / 256.0, 1.0 - c.uint / 256.0)


def make_pool(kind, uints, predicted=False):
    cfgs = [AxoConfig.from_uint(u, 8) for u in uints]
    trace = [(0, 0)] * len(cfgs)
    pred = None
    if predicted:
        pred = {
            "behav": np.asarray([u / 256.0 for u in uints]),
            "ppa": np.asarray([1.0 - u / 256.0 for u in uints]),
        }
    return ConssPool(kind, [c.as_array() for c in cfgs], trace, "conss", predicted=pred)


def test_ga_small_pool_enters_whole(adder8):
    uints = [3, 17, 40, 77, 120, 200, 220, 255]
    pool = make_pool(adder8, uints)
    ppf, _, counts = run_ga(adder8, staircase_fitness, FREE,
                            GaParams(population_size=10, max_generations=0, seed=0),
                            initial_pool=pool)
    # every distinct config is non-dominated under the staircase fitness
    assert set(uints) <= set(ppf.uints())
    assert counts[0] <= 10


def test_ga_oversized_pool_capped(adder8):
    uints = list(range(10, 70, 2))  # 30 configs
    pool = make_pool(adder8, uints)
    ppf, _, counts = run_ga(adder8, staircase_fitness, FREE,
                            GaParams(population_size=10, max_generations=0, seed=0),
                            initial_pool=pool)
    got = set(ppf.uints()) & set(uints)
    # unranked oversized pool contributes its first population_size // 2
    assert got >= set(uints[:5])
    assert counts[0] <= 10


def test_ga_oversized_predicted_pool_keeps_extremes(adder8):
    uints = list(range(10, 70, 2))
    pool = make_pool(adder8, uints, predicted=True)
    ppf, _, _ = run_ga(adder8, staircase_fitness, FREE,
                       GaParams(population_size=10, max_generations=0, seed=0),
                       initial_pool=pool)
    got = set(ppf.uints())
    assert uints[0] in got and uints[-1] in got


def test_validate_front_identity(adder4, adder4_char):
    spec = derive_constraints(adder4_char, 1.0)
    pts = [
        (r.metric("avg_abs_rel_err"), r.metric("pdplut"), r.config_uint)
        for r in adder4_char.records
    ]
    ppf = pareto_front(pts)
    vpf, n_new, char = validate_front(ppf, adder4, spec, Exhaustive(),
                                      ActivityPolicy(256), seed=0,
                                      known=adder4_char, threads=2)
    assert vpf.points == ppf.points
    assert n_new == 0
    vpf2, n_new2, char2 = validate_front(ppf, adder4, spec, Exhaustive(),
                                         ActivityPolicy(256), seed=0)
    assert n_new2 == len(ppf)
    assert vpf2.points == ppf.points
    assert char2.uints().tolist() == ppf.uints()


def test_validate_front_empty(adder4, adder4_char):
    spec = derive_constraints(adder4_char, 1.0)
    vpf, n_new, char = validate_front(ParetoFront(()), adder4, spec, Exhaustive())
    assert len(vpf) == 0 and n_new == 0 and len(char) == 0


def test_compare_hypervolumes():
    f1 = pareto_front([(0.2, 0.4, 1)])
    f2 = pareto_front([(0.1, 0.8, 1), (0.5, 0.3, 2)])
    spec = ConstraintSpec(1.0, 1.0, 1.0, "behav", "ppa", "test")
    rows = compare_hypervolumes({"train": f1, "transfer": f2}, spec)
    assert rows[0] == ("train", pytest.approx(0.48), pytest.approx(1.0))
    assert rows[1][0] == "transfer"
    assert rows[1][2] == pytest.approx(0.43 / 0.48)
    rows2 = compare_hypervolumes({"only": f2}, spec)
    assert np.isnan(rows2[0][2])


def old_crowding(pop, front):
    """The per-point crowding loop that the vectorized one replaced."""
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



@settings(max_examples=300)
@given(st.lists(st.tuples(st.one_of(coarse, unit), st.one_of(coarse, unit)),
                min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_crowding_matches_per_point_loop(pts, rnd):
    def population():
        return [Individual(np.ones(1, dtype=np.uint8), 1, b, p, True) for b, p in pts]

    # a front is any subset of the population, in any order
    front = rnd.sample(range(len(pts)), rnd.randint(1, len(pts)))
    got, want = population(), population()
    _crowding(got, front)
    old_crowding(want, front)
    assert [np.float64(x.crowding).tobytes() for x in got] == \
        [np.float64(x.crowding).tobytes() for x in want]


def test_ga_batch_fitness_matches_per_config(mul4):
    ds = characterize_dataset(mul4, list(enumerate_configs(mul4, include_all_zeros=False))[::4],
                              Sampled(512), ActivityPolicy(128), seed=0)
    rb, _ = train_regressor(ds, "avg_abs_rel_err", ForestParams(n_trees=8, seed=0))
    rp, _ = train_regressor(ds, "pdplut", ForestParams(n_trees=8, seed=0))
    spec = derive_constraints(ds, 0.6)
    params = GaParams(population_size=20, max_generations=15, seed=4)

    singles = []

    def per_config(cfg):
        singles.append(cfg.uint)
        x = np.asarray([cfg.bits], dtype=np.uint8)
        return float(predict_metric(rb, x)[0]), float(predict_metric(rp, x)[0])

    calls = []

    def batch(bits):
        calls.append(len(bits))
        return predict_metric(rb, bits), predict_metric(rp, bits)

    want = run_ga(mul4, per_config, spec, params)
    got = run_ga(mul4, batch, spec, params, batch=True)
    assert got[0] == want[0]
    assert [h.value for h in got[1]] == [h.value for h in want[1]]
    assert got[2] == want[2]
    # at most one call per generation, together on each new config once
    assert len(calls) <= params.max_generations + 1
    assert sum(calls) == len(singles) == len(set(singles))


def test_ga_pool_reads_predictions_by_metric(adder8):
    uints = list(range(10, 70, 2))
    cfgs = [AxoConfig.from_uint(u, 8).as_array() for u in uints]
    pred = {"m": np.asarray([u / 256.0 for u in uints])}
    pool = ConssPool(adder8, cfgs, [(0, 0)] * len(cfgs), "conss", predicted=pred)
    same = ConstraintSpec(1e9, 1e9, 1.0, "m", "m", "test")
    ppf, _, _ = run_ga(adder8, staircase_fitness, same,
                       GaParams(population_size=10, max_generations=0, seed=0),
                       initial_pool=pool)
    # both axes read the one prediction: only the smallest config is on its front
    assert uints[0] in ppf.uints()
    with pytest.raises(SchemaError, match="ppa"):
        run_ga(adder8, staircase_fitness, FREE,
               GaParams(population_size=10, max_generations=0, seed=0),
               initial_pool=ConssPool(adder8, cfgs, [(0, 0)] * len(cfgs), "conss",
                                      predicted={"behav": pred["m"]}))
