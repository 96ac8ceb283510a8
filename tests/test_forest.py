"""Random forest classifier and regressors built from scratch."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axokit import ModelFormatError, WidthMismatchError
from axokit import forest
from axokit.forest import (
    ForestModel,
    ForestParams,
    _Tree,
    hamming_eval,
    load_model,
    predict_bits,
    predict_bits_batch,
    predict_metric,
    regressor_grid,
    save_model,
    train_classifier,
    train_regressor,
)
from axokit.matching import TrainingSet

MEMO_PARAMS = ForestParams(n_trees=5, max_depth=None, features_per_split="all",
                           bootstrap=False, seed=0)


def memorizable_set():
    """16 distinct 4-bit inputs, deterministic 8-bit outputs."""
    X = np.array([[(u >> i) & 1 for i in range(4)] for u in range(16)], dtype=np.uint8)
    Y = np.array([[((u * 7 + 3) >> i) & 1 for i in range(8)] for u in range(16)],
                 dtype=np.uint8)
    return TrainingSet(X, Y, 0)


def test_classifier_memorizes_distinct_rows():
    t = memorizable_set()
    model, report = train_classifier(t, MEMO_PARAMS)
    assert report.hamming_max == 0
    assert report.hamming_mean == 0
    assert all(a == 1.0 for a in report.per_bit_accuracy)
    assert np.array_equal(predict_bits_batch(model, t.X), t.Y)


def test_classifier_constant_targets():
    X = np.array([[(u >> i) & 1 for i in range(4)] for u in range(8)], dtype=np.uint8)
    Y = np.ones((8, 3), dtype=np.uint8)
    model, _ = train_classifier(TrainingSet(X, Y, 0))
    assert predict_bits_batch(model, X).min() == 1


def test_classifier_needs_two_rows():
    X = np.zeros((1, 4), dtype=np.uint8)
    Y = np.zeros((1, 2), dtype=np.uint8)
    with pytest.raises(ValueError):
        train_classifier(TrainingSet(X, Y, 0))


def test_classifier_deterministic(tmp_path):
    t = memorizable_set()
    params = ForestParams(n_trees=16, seed=5)
    m1, _ = train_classifier(t, params)
    m2, _ = train_classifier(t, params, threads=4)
    p1, p2 = tmp_path / "a.fmodel", tmp_path / "b.fmodel"
    save_model(m1, p1)
    save_model(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()
    m3, _ = train_classifier(t, ForestParams(n_trees=16, seed=6))
    save_model(m3, p2)
    assert p1.read_bytes() != p2.read_bytes()


def leaf_tree(value):
    return _Tree(
        feature=np.asarray([-1], dtype=np.int32),
        left=np.asarray([0], dtype=np.int32),
        right=np.asarray([0], dtype=np.int32),
        payload=np.asarray([[value]], dtype=np.float64),
    )


def test_predict_bits_tie_keeps_lut():
    model = ForestModel("classifier", ForestParams(n_trees=2), 3, 1,
                        [leaf_tree(1.0), leaf_tree(0.0)])
    assert predict_bits(model, (0, 1, 0)) == (1,)


def test_predict_bits_rejects_regressor():
    model = ForestModel("regressor", ForestParams(n_trees=1), 3, 1, [leaf_tree(0.5)])
    with pytest.raises(ValueError):
        predict_bits(model, (0, 0, 0))
    with pytest.raises(ValueError):
        predict_metric(ForestModel("classifier", ForestParams(n_trees=1), 3, 1,
                                   [leaf_tree(1.0)]), np.zeros((2, 3), dtype=np.uint8))


def test_width_mismatch():
    model = ForestModel("classifier", ForestParams(n_trees=1), 3, 1, [leaf_tree(1.0)])
    with pytest.raises(WidthMismatchError):
        predict_bits_batch(model, np.zeros((2, 5), dtype=np.uint8))


def test_hamming_eval_counts():
    t = memorizable_set()
    model, _ = train_classifier(t, MEMO_PARAMS)
    Y = t.Y.copy()
    Y[0] ^= 1  # 8 flipped bits on row 0
    Y[1, 0] ^= 1  # 1 flipped bit on row 1
    rep = hamming_eval(model, TrainingSet(t.X, Y, 0))
    assert rep.hamming_max == 8
    assert rep.hamming_mean == pytest.approx(9 / 16)
    assert rep.hamming_hist[0] == 14
    assert rep.hamming_hist[1] == 1
    assert rep.hamming_hist[8] == 1


def test_regressor_memorizes_lut_util(adder4_char):
    # lut_util is exactly the config popcount, a pure function of the bits
    model, rep = train_regressor(adder4_char, "lut_util", MEMO_PARAMS,
                                 test_fraction=0.0)
    assert rep.rmse_train == 0
    assert rep.r2_train == 1.0
    pred = predict_metric(model, adder4_char.config_matrix())
    assert np.array_equal(pred, adder4_char.metric_values("lut_util"))


def test_regressor_split_and_report(adder8_char):
    params = ForestParams(n_trees=32, max_depth=12, seed=0)
    model, rep = train_regressor(adder8_char, "pdplut", params, split_seed=1)
    assert rep.n_rows == len(adder8_char)
    assert rep.rmse_test is not None and rep.rmse_test >= 0
    assert rep.rmse_test_scaled is not None
    span = np.ptp(adder8_char.metric_values("pdplut"))
    assert rep.rmse_test_scaled == pytest.approx(rep.rmse_test / span)
    assert rep.r2_train <= 1.0 + 1e-12


def test_regressor_deterministic(adder8_char, tmp_path):
    params = ForestParams(n_trees=8, max_depth=8, seed=3)
    m1, r1 = train_regressor(adder8_char, "avg_abs_rel_err", params, split_seed=2)
    m2, r2 = train_regressor(adder8_char, "avg_abs_rel_err", params, split_seed=2,
                             threads=4)
    assert r1.rmse_train == r2.rmse_train
    p1, p2 = tmp_path / "a.fmodel", tmp_path / "b.fmodel"
    save_model(m1, p1)
    save_model(m2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_small_batch_path_matches_vectorized(adder8_char):
    params = ForestParams(n_trees=8, max_depth=10, seed=0)
    model, _ = train_regressor(adder8_char, "pdplut", params)
    X = adder8_char.config_matrix()[:64]
    batch = predict_metric(model, X)
    singles = np.concatenate([predict_metric(model, X[i:i + 1]) for i in range(len(X))])
    assert np.array_equal(batch, singles)


def test_save_load_round_trip(adder4_char, tmp_path):
    t = memorizable_set()
    params = ForestParams(n_trees=4, max_depth=None, features_per_split=2,
                          bootstrap=True, seed=7)
    model, _ = train_classifier(t, params)
    path = tmp_path / "m.fmodel"
    save_model(model, path)
    back = load_model(path)
    assert back.kind == "classifier"
    assert back.params == params
    assert back.input_width == model.input_width
    assert back.meta == {k: str(v) for k, v in model.meta.items()}
    assert np.array_equal(predict_bits_batch(back, t.X), predict_bits_batch(model, t.X))

    reg, _ = train_regressor(adder4_char, "pdplut", ForestParams(n_trees=3, seed=1),
                             test_fraction=0.0)
    rpath = tmp_path / "r.fmodel"
    save_model(reg, rpath)
    rback = load_model(rpath)
    X = adder4_char.config_matrix()
    assert np.array_equal(predict_metric(rback, X), predict_metric(reg, X))


def test_load_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.fmodel"
    p.write_text("not a model\n")
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_load_rejects_truncation(tmp_path):
    t = memorizable_set()
    model, _ = train_classifier(t, ForestParams(n_trees=2))
    p = tmp_path / "m.fmodel"
    save_model(model, p)
    lines = p.read_text().splitlines()
    (tmp_path / "trunc.fmodel").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "trunc.fmodel")


def test_load_rejects_tamper(tmp_path):
    t = memorizable_set()
    model, _ = train_classifier(t, ForestParams(n_trees=2))
    p = tmp_path / "m.fmodel"
    save_model(model, p)
    text = p.read_text().replace("payload=", "payload= 0", 1)
    (tmp_path / "tampered.fmodel").write_text(text)
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "tampered.fmodel")


def test_params_validation():
    with pytest.raises(ValueError):
        ForestParams(n_trees=0)
    with pytest.raises(ValueError):
        ForestParams(max_depth=0)
    with pytest.raises(ValueError):
        ForestParams(min_samples_leaf=0)
    assert ForestParams(features_per_split="sqrt").n_candidates(16) == 4
    assert ForestParams(features_per_split="all").n_candidates(9) == 9
    assert ForestParams(features_per_split=3).n_candidates(2) == 2
    with pytest.raises(ValueError):
        ForestParams(features_per_split=0).n_candidates(4)


def test_regressor_grid(adder4_char):
    params, model, rep = regressor_grid(adder4_char, "pdplut", seed=0, split_seed=0,
                                        threads=4)
    from axokit.forest import GRID_DEPTHS, GRID_TREES

    assert params.n_trees in GRID_TREES
    assert params.max_depth in GRID_DEPTHS
    assert rep.rmse_test is not None
    assert model.kind == "regressor"


# -- flat forest walk ----------------------------------------------------

def per_tree_reference(model, X):
    """The per-tree walk and sum that the flat walk replaced."""
    acc = np.zeros((X.shape[0], model.payload_width))
    for t in model.trees:
        node = np.zeros(X.shape[0], dtype=np.intp)
        for i, row in enumerate(X):
            while t.feature[node[i]] >= 0:
                f = t.feature[node[i]]
                node[i] = t.right[node[i]] if row[f] > 0 else t.left[node[i]]
        acc += t.payload[node]
    return acc / len(model.trees)


def stump(feature, lo, hi):
    return _Tree(
        feature=np.asarray([feature, -1, -1], dtype=np.int32),
        left=np.asarray([1, -1, -1], dtype=np.int32),
        right=np.asarray([2, -1, -1], dtype=np.int32),
        payload=np.asarray([[0.0], [lo], [hi]]),
    )


def flat_models():
    t = memorizable_set()
    clf, _ = train_classifier(t, ForestParams(n_trees=7, max_depth=None, seed=3))
    rng = np.random.default_rng(0)
    X = (rng.random((300, 9)) < 0.5).astype(np.uint8)
    Y = (rng.random((300, 3)) < 0.3).astype(np.uint8)
    deep, _ = train_classifier(TrainingSet(X, Y, 0),
                               ForestParams(n_trees=5, max_depth=None, features_per_split=3,
                                            seed=1))
    mixed = ForestModel("regressor", ForestParams(n_trees=4), 4, 1,
                        [leaf_tree(0.1), stump(2, 0.3, 0.7), leaf_tree(0.2),
                         stump(0, 1e-17, 1e17)])
    return [clf, deep, mixed]


FLAT_MODELS = flat_models()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(len(FLAT_MODELS))), st.integers(0, 300),
       st.integers(0, 2**32 - 1))
def test_flat_walk_matches_per_tree_sum(which, n, seed):
    model = FLAT_MODELS[which]
    X = (np.random.default_rng(seed).random((n, model.input_width)) < 0.5).astype(np.uint8)
    got = model.predict_values(X)
    want = per_tree_reference(model, X)
    assert got.shape == (n, model.payload_width)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [0, 1, 2])
def test_flat_walk_tiny_batches(n):
    for model in FLAT_MODELS:
        X = np.ones((n, model.input_width), dtype=np.uint8)
        assert model.predict_values(X).tobytes() == per_tree_reference(model, X).tobytes()


def test_flat_walk_regressor_matches_per_tree_sum(adder8_char):
    model, _ = train_regressor(adder8_char, "pdplut", ForestParams(n_trees=6, seed=2))
    X = adder8_char.config_matrix()
    assert model.predict_values(X).tobytes() == per_tree_reference(model, X).tobytes()


# -- node-table validation -----------------------------------------------

def saved_model_lines(tmp_path):
    model, _ = train_classifier(memorizable_set(), ForestParams(n_trees=2, seed=0))
    p = tmp_path / "m.fmodel"
    save_model(model, p)
    return p.read_text().splitlines()


def write_with_checksum(path, lines):
    body = "\n".join(lines[:-1]) + "\n"
    path.write_text(body + "checksum=" + hashlib.sha256(body.encode()).hexdigest() + "\n")


def edit_field(lines, key, index, value):
    """Set entry ``index`` of the first ``key=`` line."""
    i = next(i for i, ln in enumerate(lines) if ln.startswith(key + "="))
    vals = lines[i][len(key) + 1:].split()
    vals[index] = str(value)
    lines[i] = key + "=" + " ".join(vals)
    return lines


def test_load_rejects_feature_out_of_range(tmp_path):
    lines = edit_field(saved_model_lines(tmp_path), "feature", 0, 4)  # 4 input bits
    write_with_checksum(tmp_path / "bad.fmodel", lines)
    with pytest.raises(ModelFormatError, match="node 0"):
        load_model(tmp_path / "bad.fmodel")


def test_load_rejects_child_past_the_table(tmp_path):
    lines = saved_model_lines(tmp_path)
    n_nodes = int(lines[7].split("nodes=")[1])
    write_with_checksum(tmp_path / "bad.fmodel", edit_field(lines, "right", 0, n_nodes))
    with pytest.raises(ModelFormatError, match="node 0"):
        load_model(tmp_path / "bad.fmodel")


def test_load_rejects_leaf_with_children(tmp_path):
    lines = saved_model_lines(tmp_path)
    feature = lines[8][len("feature="):].split()
    leaf = feature.index("-1")
    write_with_checksum(tmp_path / "bad.fmodel", edit_field(lines, "left", leaf, 0))
    with pytest.raises(ModelFormatError, match=f"node {leaf}"):
        load_model(tmp_path / "bad.fmodel")


def test_load_rejects_params_without_all_keys(tmp_path):
    lines = saved_model_lines(tmp_path)
    assert lines[4].startswith("params=")
    lines[4] = ",".join(tok for tok in lines[4].split(",") if not tok.startswith("seed:"))
    write_with_checksum(tmp_path / "bad.fmodel", lines)
    with pytest.raises(ModelFormatError, match="seed"):
        load_model(tmp_path / "bad.fmodel")


def test_load_rejects_forest_without_trees(tmp_path):
    lines = saved_model_lines(tmp_path)
    assert lines[6].startswith("n_trees=")
    write_with_checksum(tmp_path / "empty.fmodel", lines[:6] + ["n_trees=0", lines[-1]])
    with pytest.raises(ModelFormatError, match="n_trees"):
        load_model(tmp_path / "empty.fmodel")


def test_load_rejects_cyclic_tree_without_hanging(tmp_path):
    # the root's left child pointing back at the root: a walk would loop
    write_with_checksum(tmp_path / "cyclic.fmodel",
                        edit_field(saved_model_lines(tmp_path), "left", 0, 0))
    code = (
        "import sys, numpy as np\n"
        "from axokit import ModelFormatError\n"
        "from axokit.forest import load_model\n"
        "try:\n"
        "    m = load_model(sys.argv[1])\n"
        "except ModelFormatError:\n"
        "    sys.exit(3)\n"
        "m.predict_values(np.zeros((1, m.input_width), dtype=np.uint8))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    try:
        r = subprocess.run([sys.executable, "-c", code, str(tmp_path / "cyclic.fmodel")],
                           env=env, timeout=60, capture_output=True)
    except subprocess.TimeoutExpired:
        pytest.fail("a cyclic node table loaded and its prediction did not finish")
    assert r.returncode == 3, r.stderr.decode()


def per_node_build_tree(X, Y, idx, params, rng, classifier):
    """The per-node builder that carried sums replaced: every node gathers
    and sums its own rows, and every leaf averages them."""
    n_features = X.shape[1]
    feature, left, right, payload = [], [], [], []
    max_depth = params.max_depth if params.max_depth is not None else np.inf
    min_leaf = params.min_samples_leaf

    def impurity_stats(rows):
        y = Y[rows]
        n = rows.size
        s = y.sum(axis=0)
        if classifier:
            p = s / n
            return float((2.0 * p * (1.0 - p)).sum()) if n else 0.0
        ss = (y * y).sum(axis=0)
        return float((ss - s * s / n).sum())

    def new_leaf(rows):
        feature.append(-1)
        left.append(-1)
        right.append(-1)
        payload.append(Y[rows].mean(axis=0))
        return len(feature) - 1

    stack = [(idx, 0, -1, False)]
    while stack:
        rows, depth, parent, is_right = stack.pop()
        imp = impurity_stats(rows)
        if imp <= 1e-12 or depth >= max_depth or rows.size < 2 * min_leaf:
            node_id = new_leaf(rows)
        else:
            m = params.n_candidates(n_features)
            if m >= n_features:
                cand = np.arange(n_features)
            else:
                cand = np.sort(rng.choice(n_features, size=m, replace=False))
            Xc = X[rows][:, cand].astype(np.float64)
            n = rows.size
            n1 = Xc.sum(axis=0)
            n0 = n - n1
            yc = Y[rows]
            s1 = Xc.T @ yc
            s0 = yc.sum(axis=0) - s1
            with np.errstate(divide="ignore", invalid="ignore"):
                if classifier:
                    p1 = np.where(n1[:, None] > 0, s1 / n1[:, None], 0.0)
                    p0 = np.where(n0[:, None] > 0, s0 / n0[:, None], 0.0)
                    child = (n1 * (2 * p1 * (1 - p1)).sum(axis=1)
                             + n0 * (2 * p0 * (1 - p0)).sum(axis=1)) / n
                else:
                    ss1 = Xc.T @ (yc * yc)
                    ss0 = (yc * yc).sum(axis=0) - ss1
                    v1 = np.where(n1[:, None] > 0, ss1 - s1 * s1 / n1[:, None], 0.0)
                    v0 = np.where(n0[:, None] > 0, ss0 - s0 * s0 / n0[:, None], 0.0)
                    child = (v1.sum(axis=1) + v0.sum(axis=1)) / n
            valid = (n1 >= min_leaf) & (n0 >= min_leaf)
            if not valid.any():
                node_id = new_leaf(rows)
            else:
                best = int(np.argmin(np.where(valid, child, np.inf)))
                f = int(cand[best])
                mask = X[rows, f] > 0
                node_id = len(feature)
                feature.append(f)
                left.append(0)
                right.append(0)
                payload.append(np.zeros(Y.shape[1]))
                stack.append((rows[mask], depth + 1, node_id, True))
                stack.append((rows[~mask], depth + 1, node_id, False))
        if parent >= 0:
            (right if is_right else left)[parent] = node_id
    return _Tree(np.asarray(feature, dtype=np.int32), np.asarray(left, dtype=np.int32),
                 np.asarray(right, dtype=np.int32), np.asarray(payload, dtype=np.float64))


@settings(max_examples=120, deadline=None)
@given(classifier=st.booleans(), n=st.integers(2, 200), n_features=st.integers(1, 12),
       n_out=st.integers(1, 24), bootstrap=st.booleans(),
       features=st.sampled_from(["sqrt", "all", 1, 2, 5]),
       min_leaf=st.integers(1, 3), depth=st.sampled_from([None, 1, 3, 8]),
       p_one=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
def test_carried_sums_build_the_per_node_trees(classifier, n, n_features, n_out, bootstrap,
                                                features, min_leaf, depth, p_one, seed):
    """Trees built from sums carried down the tree equal the per-node
    builder's, node table and payload bytes alike."""
    rng = np.random.default_rng(seed)
    X = (rng.random((n, n_features)) < p_one).astype(np.uint8)
    if classifier:
        Y = (rng.random((n, n_out)) < p_one).astype(np.uint8)
    else:
        Y = np.round(rng.normal(size=(n, 1)) * 10.0 ** rng.integers(-3, 4), 2)
        Y[rng.random(n) < 0.02] = rng.choice([np.inf, -np.inf, np.nan])
    params = ForestParams(n_trees=3, max_depth=depth, min_samples_leaf=min_leaf,
                          features_per_split=features, bootstrap=bootstrap, seed=seed % 97)
    got = forest._train_forest(X, Y, params, classifier)
    assert len(got) == params.n_trees
    for t, a in enumerate(got):
        r = np.random.default_rng(np.random.SeedSequence((params.seed, forest._TAG_TREE, t)))
        idx = np.sort(r.integers(0, n, size=n)) if bootstrap else np.arange(n)
        with np.errstate(invalid="ignore"):
            b = per_node_build_tree(X, Y.astype(np.float64), idx.astype(np.intp), params, r,
                                    classifier)
        assert np.array_equal(a.feature, b.feature)
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.right, b.right)
        assert a.payload.tobytes() == b.payload.tobytes()
