"""Constraint derivation, seed selection, supersampling, pool evaluation."""

import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axokit import (
    AxoConfig,
    CapacityError,
    Family,
    OperatorKind,
    SchemaError,
    WidthMismatchError,
    enumerate_configs,
)
from axokit import conss
from axokit.characterize import ActivityPolicy, Exhaustive, characterize_dataset
from axokit.conss import (
    ConssPool,
    ConstraintSpec,
    Estimators,
    ProxyCharacterize,
    derive_constraints,
    evaluate_pool,
    export_pool_csv,
    import_pool_csv,
    pareto_mask,
    select_seeds,
    supersample,
)
from axokit.forest import ForestParams, train_classifier, train_regressor
from axokit.matching import (
    EnumerateAll,
    MatchDataset,
    MatchedPair,
    SamplePatterns,
    TrainingSet,
    augment_with_noise,
    match_datasets,
)
from axokit.stats import DistanceKind, SignedDistance


@pytest.fixture(scope="module")
def mul4_char():
    kind = OperatorKind(Family.SIGNED_MULTIPLIER, 4)
    cfgs = list(enumerate_configs(kind, include_all_zeros=False))
    return characterize_dataset(kind, cfgs, Exhaustive(), ActivityPolicy(128),
                                seed=0, threads=4)


@pytest.fixture(scope="module")
def bit_model(adder4_char, adder8_char):
    m = match_datasets(adder4_char, adder8_char)
    t = augment_with_noise(m, 2)
    model, _ = train_classifier(t, ForestParams(n_trees=16, max_depth=10, seed=0))
    return model


def test_derive_constraints_scales_maxima(adder4_char):
    b = adder4_char.metric_values("avg_abs_rel_err").max()
    p = adder4_char.metric_values("pdplut").max()
    spec = derive_constraints(adder4_char, 0.5)
    assert spec.b_max == pytest.approx(0.5 * b)
    assert spec.p_max == pytest.approx(0.5 * p)
    assert spec.scaling_factor == 0.5
    assert spec.source == "adder:u4"
    full = derive_constraints(adder4_char, 1.0)
    assert full.b_max == pytest.approx(b)


def test_derive_constraints_validates_factor(adder4_char):
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            derive_constraints(adder4_char, bad)


def test_constraint_violation_arithmetic():
    spec = ConstraintSpec(1.0, 2.0, 0.5, "a", "b", "src")
    assert spec.feasible(1.0, 2.0)
    assert not spec.feasible(1.0 + 1e-9, 2.0)
    assert spec.violation(1.0, 2.0) == 0
    assert spec.violation(1.5, 2.0) == pytest.approx(0.5)
    assert spec.violation(1.5, 3.0) == pytest.approx(1.0)


def test_select_seeds_brute_force(mul4_char):
    spec = derive_constraints(mul4_char, 0.5)
    b = mul4_char.metric_values(spec.behav_metric)
    p = mul4_char.metric_values(spec.ppa_metric)
    want = [
        r.config.uint
        for r, bb, pp in zip(mul4_char.records, b, p)
        if bb <= 0.5 * b.max() and pp <= 0.5 * p.max()
    ]
    got = [c.uint for c in select_seeds(mul4_char, spec)]
    assert got == want
    assert 0 < len(got) < len(mul4_char)


def test_select_seeds_factor_one_keeps_all(mul4_char):
    spec = derive_constraints(mul4_char, 1.0)
    assert len(select_seeds(mul4_char, spec)) == len(mul4_char)


def test_select_seeds_pareto_subset(mul4_char):
    spec = derive_constraints(mul4_char, 0.5)
    all_u = {c.uint for c in select_seeds(mul4_char, spec, mode="all")}
    par = select_seeds(mul4_char, spec, mode="pareto")
    par_u = {c.uint for c in par}
    assert par_u <= all_u
    # survivors are mutually non-dominated
    by_uint = {r.config.uint: r for r in mul4_char.records}
    pts = [(by_uint[u].metric(spec.behav_metric), by_uint[u].metric(spec.ppa_metric))
           for u in sorted(par_u)]
    for i, (bi, pi) in enumerate(pts):
        for j, (bj, pj) in enumerate(pts):
            if i != j:
                assert not (bj <= bi and pj <= pi and (bj < bi or pj < pi))
    with pytest.raises(ValueError):
        select_seeds(mul4_char, spec, mode="best")


def test_pareto_mask_brute_force(rng):
    b = rng.random(80)
    p = rng.random(80)
    mask = pareto_mask(b, p)
    for i in range(80):
        dominated = any(
            b[j] <= b[i] and p[j] <= p[i] and (b[j] < b[i] or p[j] < p[i])
            for j in range(80)
        )
        assert mask[i] == (not dominated)


def loop_pareto_mask(behav, ppa):
    """The per-point scan that the sort-and-scan pareto_mask replaced."""
    mask = np.ones(behav.size, dtype=bool)
    for i in range(behav.size):
        dom = (behav <= behav[i]) & (ppa <= ppa[i]) & ((behav < behav[i]) | (ppa < ppa[i]))
        if dom.any():
            mask[i] = False
    return mask


# a coarse grid forces ties and exact duplicates; the specials cover signed
# zeros, infinities and NaN
coord = st.one_of(st.integers(0, 3).map(float),
                  st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
                  st.floats(allow_nan=False, width=32))


@settings(max_examples=300)
@given(st.lists(st.tuples(coord, coord), max_size=40))
def test_pareto_mask_matches_pairwise_scan(pts):
    b = np.asarray([x for x, _ in pts], dtype=np.float64)
    p = np.asarray([y for _, y in pts], dtype=np.float64)
    assert pareto_mask(b, p).tolist() == loop_pareto_mask(b, p).tolist()


def test_pareto_mask_keeps_exact_duplicates():
    b = np.array([1.0, 1.0, 0.5, 2.0, 1.0])
    p = np.array([1.0, 1.0, 2.0, 0.5, 1.5])
    assert pareto_mask(b, p).tolist() == [True, True, True, True, False]


def test_supersample_pool_shape(bit_model, adder4_char, adder8):
    spec = derive_constraints(adder4_char, 0.5)
    seeds = select_seeds(adder4_char, spec)
    pool = supersample(bit_model, adder8, seeds, 2)
    assert 0 < len(pool) <= len(seeds) * 4
    uints = [c.uint for c in pool.configs]
    assert len(set(uints)) == len(uints)
    assert 0 not in uints
    assert uints == sorted(uints)
    assert all(len(c) == 8 for c in pool.configs)
    seed_uints = {s.uint for s in seeds}
    for lu, pat in pool.trace:
        assert lu in seed_uints
        assert 0 <= pat < 4


def old_supersample_rows(seeds, n_noise, mode):
    """The row loop supersample had before it shared augment_with_noise's builder."""
    if isinstance(mode, EnumerateAll):
        per_seed = [list(range(1 << n_noise))] * len(seeds)
    else:
        rng = np.random.default_rng(np.random.SeedSequence((int(mode.seed), 4)))
        per_seed = [rng.integers(0, 1 << n_noise, size=mode.k).tolist() if n_noise
                    else [0] * mode.k for _ in seeds]
    return np.asarray([s.bits + tuple((v >> j) & 1 for j in range(n_noise))
                       for s, pats in zip(seeds, per_seed) for v in pats], dtype=np.uint8)


@settings(max_examples=100)
@given(st.lists(st.integers(1, 15), min_size=1, max_size=6), st.integers(0, 5),
       st.one_of(st.just(EnumerateAll()),
                 st.builds(SamplePatterns, st.integers(1, 4), st.integers(0, 3))))
def test_supersample_feeds_the_training_rows(l_uints, n_noise, mode):
    low, high = OperatorKind(Family.UNSIGNED_ADDER, 4), OperatorKind(Family.UNSIGNED_ADDER, 8)
    seeds = [AxoConfig.from_uint(u, 4) for u in l_uints]
    sd = SignedDistance(0.0, 0, 0, DistanceKind.EUCLIDEAN)
    m = MatchDataset(low, high, [MatchedPair(c, AxoConfig.from_uint(1, 8), sd) for c in seeds],
                     DistanceKind.EUCLIDEAN)
    fed = []

    def capture(model, rows):
        fed.append(rows)
        return np.zeros((len(rows), 8), dtype=np.uint8)

    model = SimpleNamespace(kind="classifier", input_width=4 + n_noise, output_width=8)
    with mock.patch.object(conss, "predict_bits_batch", capture):
        supersample(model, high, seeds, n_noise, mode)
    want = old_supersample_rows(seeds, n_noise, mode)
    assert len(fed) == 1
    assert fed[0].dtype == want.dtype and np.array_equal(fed[0], want)
    assert np.array_equal(augment_with_noise(m, n_noise, mode).X, want)


def test_supersample_width_guards(bit_model, adder4_char, adder8, mul4):
    seeds = select_seeds(adder4_char, derive_constraints(adder4_char, 1.0))
    with pytest.raises(WidthMismatchError):
        supersample(bit_model, adder8, seeds, 3)  # model wants 4+2 inputs
    with pytest.raises(WidthMismatchError):
        supersample(bit_model, mul4, seeds, 2)  # output width 8 != 10
    pool = supersample(bit_model, adder8, [], 2)
    assert len(pool) == 0


def test_supersample_enumerate_guard(adder8):
    # 2^13 enumerated noise patterns per seed are refused before predicting
    model = SimpleNamespace(kind="classifier", input_width=4 + 13, output_width=8)
    seeds = [AxoConfig.from_uint(5, 4)]
    with mock.patch.object(conss, "predict_bits_batch", side_effect=AssertionError):
        with pytest.raises(CapacityError, match=r"2\^13"):
            supersample(model, adder8, seeds, 13, mode=EnumerateAll())


def test_supersample_rejects_regressor(adder4_char, adder8):
    reg, _ = train_regressor(adder4_char, "pdplut", ForestParams(n_trees=2),
                             test_fraction=0.0)
    with pytest.raises(ValueError):
        supersample(reg, adder8, [AxoConfig.from_uint(3, 4)], 0)


@pytest.fixture(scope="module")
def small_pool(bit_model, adder4_char, adder8):
    seeds = select_seeds(adder4_char, derive_constraints(adder4_char, 0.5))
    return supersample(bit_model, adder8, seeds, 2)


def test_evaluate_pool_estimators(small_pool, adder8_char):
    be, _ = train_regressor(adder8_char, "avg_abs_rel_err",
                            ForestParams(n_trees=8, seed=0))
    pe, _ = train_regressor(adder8_char, "pdplut", ForestParams(n_trees=8, seed=0))
    est = Estimators(be, pe)
    p1 = evaluate_pool(small_pool, est)
    assert set(p1.predicted) == {"avg_abs_rel_err", "pdplut"}
    assert all(len(v) == len(p1) for v in p1.predicted.values())
    p2 = evaluate_pool(small_pool, est)
    for k in p1.predicted:
        assert np.array_equal(p1.predicted[k], p2.predicted[k])


def test_evaluate_pool_proxy(small_pool):
    src = ProxyCharacterize(Exhaustive(), ActivityPolicy(64), seed=0, threads=4)
    p1 = evaluate_pool(small_pool, src)
    assert p1.validated is not None
    assert p1.validated.uints().tolist() == [c.uint for c in small_pool.configs]
    p2 = evaluate_pool(small_pool, src)
    names = ["avg_abs_rel_err", "pdplut"]
    assert np.array_equal(p1.validated.metric_matrix(names),
                          p2.validated.metric_matrix(names))


def test_threads_start_no_thread(mul4_char, small_pool, monkeypatch):
    """``threads`` is accepted for compatibility; every stage runs serially."""
    def refuse(self):
        raise AssertionError(f"started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    configs = [r.config for r in mul4_char.records[:8]]
    characterize_dataset(mul4_char.kind, configs, Exhaustive(), ActivityPolicy(64),
                         seed=0, threads=4)
    X = mul4_char.config_matrix()[:32]
    train_classifier(TrainingSet(X, X, 0), ForestParams(n_trees=4, seed=0), threads=4)
    train_regressor(mul4_char, "pdplut", ForestParams(n_trees=4, seed=0), threads=4)
    evaluate_pool(small_pool, ProxyCharacterize(Exhaustive(), ActivityPolicy(64),
                                                seed=0, threads=4))


def test_evaluate_pool_guards(small_pool, adder8):
    with pytest.raises(ValueError):
        evaluate_pool(ConssPool(adder8, np.zeros((0, 8)), [], "x"), Exhaustive())
    with pytest.raises(TypeError):
        evaluate_pool(small_pool, object())


def test_pool_validation(adder8):
    c = AxoConfig.from_uint(5, 8).as_array()
    with pytest.raises(ValueError):
        ConssPool(adder8, [c, c], [(1, 0), (1, 1)], "x")
    with pytest.raises(ValueError):
        ConssPool(adder8, [c], [], "x")
    with pytest.raises(ValueError):
        ConssPool(adder8, [c * 2], [(1, 0)], "x")
    with pytest.raises(WidthMismatchError):
        ConssPool(adder8, [AxoConfig.from_uint(3, 4).as_array()], [(1, 0)], "x")


def test_pool_csv_round_trip(small_pool, adder8_char, tmp_path):
    path = tmp_path / "pool.csv"
    export_pool_csv(small_pool, path)
    back = import_pool_csv(path)
    assert back.kind == small_pool.kind
    assert [c.uint for c in back.configs] == [c.uint for c in small_pool.configs]
    assert back.trace == small_pool.trace
    assert back.predicted is None

    be, _ = train_regressor(adder8_char, "avg_abs_rel_err", ForestParams(n_trees=4))
    pe, _ = train_regressor(adder8_char, "pdplut", ForestParams(n_trees=4))
    evaluated = evaluate_pool(small_pool, Estimators(be, pe))
    path2 = tmp_path / "pool_pred.csv"
    export_pool_csv(evaluated, path2)
    back2 = import_pool_csv(path2)
    assert back2.predicted is not None
    for k, v in evaluated.predicted.items():
        assert np.array_equal(back2.predicted[k], v)


def test_pool_csv_schema_errors(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("# kind=adder:u8 source=x\nwrong_header\n")
    with pytest.raises(SchemaError, match="header"):
        import_pool_csv(p)
    p.write_text("# source=x\nconfig_bits,config_uint,origin_l_uint,noise_pattern,source\n")
    with pytest.raises(SchemaError, match="kind"):
        import_pool_csv(p)
    p.write_text(
        "# kind=adder:u8 source=x\n"
        "config_bits,config_uint,origin_l_uint,noise_pattern,source\n"
        "00000101,6,1,0,x\n"
    )
    with pytest.raises(SchemaError, match=":3:"):
        import_pool_csv(p)
