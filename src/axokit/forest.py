"""From-scratch random forests over binary configuration features.

Two learners share one tree engine: a multi-output bit classifier (one
forest predicts the whole output bit-vector; leaves hold per-bit vote
fractions) and per-metric regressors (leaves hold means).  Features are
raw config bits, so every split threshold is 0.5, and one matrix product
per node gives the x=1 side's target sums for all candidate features at
once.  The classifier's targets are 0/1, so its sums are exact integers:
the chosen split's two sides, their Gini impurities and, at the leaves,
the vote fractions are carried down the tree instead of being summed
again from the rows.

Zero-gain splits are accepted while a node is impure and some candidate
feature still separates it; with bootstrap off, all features, and unique
inputs this yields exact memorization of the training rows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .artifacts import fmt_column, write_lines
from .characterize import CharDataset
from .errors import ModelFormatError, WidthMismatchError
from .matching import TrainingSet

MODEL_MAGIC = "axokit-forest-v1"
PARAM_KEYS = ("n_trees", "max_depth", "min_samples_leaf", "features_per_split",
              "bootstrap", "seed")

_TAG_TREE = 5


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 128
    max_depth: int | None = 16
    min_samples_leaf: int = 1
    features_per_split: str | int = "sqrt"  # "sqrt" | "all" | fixed count
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")

    def n_candidates(self, n_features: int) -> int:
        if self.features_per_split == "all":
            return n_features
        if self.features_per_split == "sqrt":
            return max(1, int(np.sqrt(n_features)))
        k = int(self.features_per_split)
        if k < 1:
            raise ValueError("fixed feature count must be >= 1")
        return min(k, n_features)


# AutoML stand-in grid
GRID_TREES = (64, 128, 256)
GRID_DEPTHS = (8, 16, 24)


@dataclass
class TrainReport:
    n_rows: int = 0
    per_bit_accuracy: list[float] | None = None
    hamming_hist: np.ndarray | None = None
    hamming_mean: float | None = None
    hamming_max: int | None = None
    rmse_train: float | None = None
    rmse_test: float | None = None
    rmse_test_scaled: float | None = None
    r2_train: float | None = None
    r2_test: float | None = None


@dataclass
class _Tree:
    """One tree's node table, as trained and as stored in a model file."""

    feature: np.ndarray  # (nodes,) int32, -1 at leaves
    left: np.ndarray
    right: np.ndarray
    payload: np.ndarray  # (nodes, payload_width), leaf rows meaningful


class ForestModel:
    def __init__(self, kind: str, params: ForestParams, input_width: int,
                 payload_width: int, trees: list[_Tree], meta: dict | None = None):
        self.kind = kind  # "classifier" | "regressor"
        self.params = params
        self.input_width = input_width
        self.payload_width = payload_width
        self.trees = trees
        self.meta = dict(meta or {})
        self._flatten()

    def _flatten(self) -> None:
        # One node table for the whole forest: trees concatenated, child
        # indices offset.  Leaves point at themselves (and test feature 0),
        # so a walk can run a fixed number of levels without a leaf test.
        sizes = [t.feature.size for t in self.trees]
        self._roots = np.cumsum([0] + sizes[:-1]).astype(np.intp)
        offsets = np.repeat(self._roots, sizes)
        feature = np.concatenate([t.feature for t in self.trees]).astype(np.intp)
        leaf = feature < 0
        own = np.arange(feature.size, dtype=np.intp)
        left = np.concatenate([t.left for t in self.trees]) + offsets
        right = np.concatenate([t.right for t in self.trees]) + offsets
        self._feature = np.where(leaf, 0, feature)
        # children[2 * node + bit]: the node reached from ``node`` on input bit
        self._children = np.stack([np.where(leaf, own, left),
                                   np.where(leaf, own, right)], axis=1).ravel()
        self._depth = _forest_depth(self._roots, feature, left, right)

    @property
    def output_width(self) -> int:
        return self.payload_width

    def _check_width(self, X: np.ndarray):
        if X.ndim != 2 or X.shape[1] != self.input_width:
            raise WidthMismatchError(
                f"expected {self.input_width} input bits, got shape {X.shape}"
            )

    def predict_values(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf payload over trees; (n, payload_width).

        All (row, tree) pairs descend one level per step.  Leaf payloads are
        then summed in tree order, so the result matches adding up each
        tree's prediction in turn, bit for bit.
        """
        X = np.ascontiguousarray(X, dtype=np.uint8)
        self._check_width(X)
        n, n_trees = X.shape[0], len(self.trees)
        node = np.tile(self._roots, n)  # (row, tree) pairs, row-major
        bit_at = np.repeat(np.arange(n, dtype=np.intp) * self.input_width, n_trees)
        x = X.ravel() != 0
        for _ in range(self._depth):
            node = self._children[2 * node + x[bit_at + self._feature[node]]]
        leaves = node.reshape(n, n_trees) - self._roots  # node ids within each tree
        acc = np.zeros((n, self.payload_width), dtype=np.float64)
        for t, tree in enumerate(self.trees):
            acc += tree.payload[leaves[:, t]]
        return acc / n_trees


def _forest_depth(roots: np.ndarray, feature: np.ndarray, left: np.ndarray,
                  right: np.ndarray) -> int:
    """Levels from the roots to the deepest leaf."""
    depth = 0
    frontier = roots[feature[roots] >= 0]
    while frontier.size:
        depth += 1
        kids = np.concatenate([left[frontier], right[frontier]])
        frontier = kids[feature[kids] >= 0]
    return depth


def _build_tree(X: np.ndarray, Y: np.ndarray, idx: np.ndarray,
                params: ForestParams, rng: np.random.Generator, classifier: bool) -> _Tree:
    """One tree over the rows ``idx``, built depth first, left child first.

    A classifier's ``Y`` ends in a column of ones (see ``_train_forest``),
    so the split product also counts each candidate's x=1 rows.  Its
    targets are 0/1, so every sum is an exact integer: a node's sums and
    Gini come down from the split that made it, and a leaf's payload is
    its sums over its row count, which is ``Y[rows].mean(axis=0)`` bit for
    bit.  A regressor's sums are float products, so each of its nodes sums
    its own gathered rows.
    """
    n_features = X.shape[1]
    max_depth = params.max_depth if params.max_depth is not None else np.inf
    min_leaf = params.min_samples_leaf
    m = params.n_candidates(n_features)
    feature, left, right = [], [], []
    leaves, leaf_means = [], []

    s = g = None
    if classifier:  # multi-output Gini: the sum over bits of 2 p (1 - p)
        s = Y[idx].sum(axis=0)[:-1]
        p = s / idx.size
        g = (2 * p * (1 - p)).sum()
    stack = [(idx, 0, -1, False, s, g)]  # rows, depth, parent, is_right, sums, impurity
    with np.errstate(divide="ignore", invalid="ignore"):
        while stack:
            rows, depth, parent, is_right, s, imp = stack.pop()
            n = rows.size
            if not classifier:
                y = Y[rows]
                s = y.sum(axis=0)
                ss = (y * y).sum(axis=0)
                imp = float((ss - s * s / n).sum())
            node_id = len(feature)
            if parent >= 0:
                (right if is_right else left)[parent] = node_id
            feature.append(-1)
            left.append(-1)
            right.append(-1)
            split = not imp <= 1e-12 and depth < max_depth and n >= 2 * min_leaf
            if split:
                if m >= n_features:
                    cand = np.arange(n_features)
                else:
                    cand = np.sort(rng.choice(n_features, size=m, replace=False))
                # keep this expression: its result is Fortran-ordered, and the
                # regressors' BLAS products below round by that layout
                Xc = X[rows][:, cand].astype(np.float64)
                if classifier:
                    both = Xc.T @ Y[rows]
                    s1 = both[:, :-1]
                    # the first m entries are the candidates' x=1 sides, the last m their x=0 sides
                    sides = np.concatenate([s1, s - s1])
                    ns = np.concatenate([both[:, -1], n - both[:, -1]])
                    p = np.divide(sides, ns[:, None], out=np.zeros_like(sides),
                                  where=ns[:, None] > 0)
                    gini = (2 * p * (1 - p)).sum(axis=1)
                    weighted = ns * gini
                    child = (weighted[:m] + weighted[m:]) / n
                    n1, n0 = ns[:m], ns[m:]
                else:
                    n1 = Xc.sum(axis=0)
                    n0 = n - n1
                    s1 = Xc.T @ y
                    s0 = s - s1
                    ss1 = Xc.T @ (y * y)
                    ss0 = ss - ss1
                    v1 = np.where(n1[:, None] > 0, ss1 - s1 * s1 / n1[:, None], 0.0)
                    v0 = np.where(n0[:, None] > 0, ss0 - s0 * s0 / n0[:, None], 0.0)
                    child = (v1.sum(axis=1) + v0.sum(axis=1)) / n
                valid = (n1 >= min_leaf) & (n0 >= min_leaf)
                split = valid.any()
            if not split:
                leaves.append(node_id)
                leaf_means.append(s / n)
                continue
            best = int(np.argmin(np.where(valid, child, np.inf)))  # first minimum: lowest feature
            feature[node_id] = int(cand[best])
            mask = Xc[:, best] > 0
            # push right first so left is built first (stable layout)
            if classifier:
                stack.append((rows[mask], depth + 1, node_id, True, sides[best], gini[best]))
                stack.append((rows[~mask], depth + 1, node_id, False, sides[m + best],
                               gini[m + best]))
            else:
                stack.append((rows[mask], depth + 1, node_id, True, None, None))
                stack.append((rows[~mask], depth + 1, node_id, False, None, None))

    payload = np.zeros((len(feature), leaf_means[0].size), dtype=np.float64)
    payload[leaves] = leaf_means
    return _Tree(
        feature=np.asarray(feature, dtype=np.int32),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        payload=payload,
    )


def _train_forest(X: np.ndarray, Y: np.ndarray, params: ForestParams,
                  classifier: bool) -> list[_Tree]:
    n = X.shape[0]
    Y = Y.astype(np.float64)
    if classifier:
        Y = np.hstack([Y, np.ones((n, 1))])
    trees = []
    for t in range(params.n_trees):
        rng = np.random.default_rng(np.random.SeedSequence((int(params.seed), _TAG_TREE, t)))
        if params.bootstrap:
            idx = np.sort(rng.integers(0, n, size=n)).astype(np.intp)
        else:
            idx = np.arange(n, dtype=np.intp)
        trees.append(_build_tree(X, Y, idx, params, rng, classifier))
    return trees


def train_classifier(t: TrainingSet, params: ForestParams = ForestParams(),
                     threads: int = 1) -> tuple[ForestModel, TrainReport]:
    """Multi-output bit classifier; report covers the training rows.

    ``threads`` is accepted for compatibility and has no effect.
    """
    if len(t) < 2:
        raise ValueError("need at least 2 training rows")
    trees = _train_forest(t.X, t.Y, params, classifier=True)
    model = ForestModel("classifier", params, t.input_width, t.output_width, trees,
                        meta=dict(t.meta))
    report = hamming_eval(model, t)
    return model, report


def predict_bits_batch(model: ForestModel, X: np.ndarray) -> np.ndarray:
    """Per-bit majority over trees; exact ties keep the LUT (bit 1)."""
    if model.kind != "classifier":
        raise ValueError("predict_bits needs a classifier model")
    return (model.predict_values(X) >= 0.5).astype(np.uint8)


def predict_bits(model: ForestModel, bits: Sequence[int]) -> tuple[int, ...]:
    out = predict_bits_batch(model, np.asarray([bits], dtype=np.uint8))
    return tuple(int(b) for b in out[0])


def hamming_eval(model: ForestModel, holdout: TrainingSet) -> TrainReport:
    """Hamming(original output, predicted output) histogram over rows."""
    if len(holdout) == 0:
        raise ValueError("empty holdout")
    pred = predict_bits_batch(model, holdout.X)
    if pred.shape[1] != holdout.output_width:
        raise WidthMismatchError("model and holdout output widths differ")
    errs = pred != holdout.Y
    dists = errs.sum(axis=1)
    hist = np.bincount(dists, minlength=holdout.output_width + 1)
    return TrainReport(
        n_rows=len(holdout),
        per_bit_accuracy=[float(a) for a in 1.0 - errs.mean(axis=0)],
        hamming_hist=hist,
        hamming_mean=float(dists.mean()),
        hamming_max=int(dists.max()),
    )


def _rmse(y, p) -> float:
    return float(np.sqrt(np.mean((y - p) ** 2)))


def _r2(y, p) -> float:
    ss_res = float(((y - p) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0


def train_regressor(d: CharDataset, target_metric: str,
                    params: ForestParams = ForestParams(), split_seed: int = 0,
                    test_fraction: float = 0.2,
                    threads: int = 1) -> tuple[ForestModel, TrainReport]:
    """Per-metric regression forest on config bits.

    Report carries train/test RMSE and R2 under a seeded 80/20 shuffle
    split; rmse_test_scaled divides by the dataset's target range so
    estimators of different metrics compare on one scale.  ``threads`` is
    accepted for compatibility and has no effect.
    """
    if len(d) < 2:
        raise ValueError("need at least 2 records")
    X = d.config_matrix()
    y = d.metric_values(target_metric)
    rng = np.random.default_rng(np.random.SeedSequence((int(split_seed), 7)))
    order = rng.permutation(len(d))
    n_test = int(round(test_fraction * len(d)))
    test_idx, train_idx = order[:n_test], order[n_test:]
    if train_idx.size < 2:
        raise ValueError("training split too small")
    trees = _train_forest(X[train_idx], y[train_idx, None], params, classifier=False)
    model = ForestModel("regressor", params, X.shape[1], 1, trees,
                        meta={"target": target_metric, "kind": d.kind.token,
                              "split_seed": str(split_seed)})
    p_train = model.predict_values(X[train_idx])[:, 0]
    report = TrainReport(n_rows=len(d), rmse_train=_rmse(y[train_idx], p_train),
                         r2_train=_r2(y[train_idx], p_train))
    span = float(y.max() - y.min())
    if n_test:
        p_test = model.predict_values(X[test_idx])[:, 0]
        report.rmse_test = _rmse(y[test_idx], p_test)
        report.r2_test = _r2(y[test_idx], p_test)
        report.rmse_test_scaled = report.rmse_test / span if span > 0 else 0.0
    return model, report


def predict_metric(model: ForestModel, X: np.ndarray) -> np.ndarray:
    if model.kind != "regressor":
        raise ValueError("predict_metric needs a regressor model")
    return model.predict_values(X)[:, 0]


def regressor_grid(d: CharDataset, target_metric: str, seed: int = 0,
                   split_seed: int = 0, threads: int = 1):
    """Small fixed grid standing in for AutoML estimator selection.

    Returns (params, model, report) minimizing test RMSE; ties fall to the
    earlier grid entry.  ``threads`` is accepted for compatibility and has
    no effect.
    """
    best = None
    for n_trees in GRID_TREES:
        for depth in GRID_DEPTHS:
            params = ForestParams(n_trees=n_trees, max_depth=depth, seed=seed)
            model, rep = train_regressor(d, target_metric, params, split_seed=split_seed)
            key = rep.rmse_test if rep.rmse_test is not None else rep.rmse_train
            if best is None or key < best[0]:
                best = (key, params, model, rep)
    return best[1], best[2], best[3]


# -- persistence -------------------------------------------------------

def save_model(model: ForestModel, path) -> None:
    lines = [MODEL_MAGIC]
    p = model.params
    lines.append(f"kind={model.kind}")
    lines.append(f"input_width={model.input_width}")
    lines.append(f"payload_width={model.payload_width}")
    lines.append(
        "params="
        f"n_trees:{p.n_trees},max_depth:{'none' if p.max_depth is None else p.max_depth},"
        f"min_samples_leaf:{p.min_samples_leaf},features_per_split:{p.features_per_split},"
        f"bootstrap:{int(p.bootstrap)},seed:{p.seed}"
    )
    lines.append("meta=" + " ".join(f"{k}:{v}" for k, v in sorted(model.meta.items())))
    lines.append(f"n_trees={len(model.trees)}")
    for i, t in enumerate(model.trees):
        lines.append(f"tree={i} nodes={t.feature.size}")
        lines.append("feature=" + " ".join(map(str, t.feature.tolist())))
        lines.append("left=" + " ".join(map(str, t.left.tolist())))
        lines.append("right=" + " ".join(map(str, t.right.tolist())))
        lines.append("payload=" + " ".join(fmt_column(t.payload)))
    body = "\n".join(lines) + "\n"
    lines.append("checksum=" + hashlib.sha256(body.encode("utf-8")).hexdigest())
    write_lines(path, lines)


def load_model(path) -> ForestModel:
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    lines = raw.splitlines()
    if not lines or lines[0] != MODEL_MAGIC:
        raise ModelFormatError(f"{path}: not a {MODEL_MAGIC} file")
    if not lines[-1].startswith("checksum="):
        raise ModelFormatError(f"{path}: missing checksum line (truncated?)")
    body = "\n".join(lines[:-1]) + "\n"
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if lines[-1] != f"checksum={digest}":
        raise ModelFormatError(f"{path}: checksum mismatch")

    def take(i, key):
        if i >= len(lines) or not lines[i].startswith(key + "="):
            raise ModelFormatError(f"{path}: expected {key}= at line {i + 1}")
        return lines[i][len(key) + 1:]

    kind = take(1, "kind")
    input_width = int(take(2, "input_width"))
    payload_width = int(take(3, "payload_width"))
    pfields = dict(tok.split(":", 1) for tok in take(4, "params").split(","))
    missing = [k for k in PARAM_KEYS if k not in pfields]
    if missing:
        raise ModelFormatError(f"{path}: params= line lacks {', '.join(missing)}")
    fps: str | int = pfields["features_per_split"]
    if fps not in ("sqrt", "all"):
        fps = int(fps)
    params = ForestParams(
        n_trees=int(pfields["n_trees"]),
        max_depth=None if pfields["max_depth"] == "none" else int(pfields["max_depth"]),
        min_samples_leaf=int(pfields["min_samples_leaf"]),
        features_per_split=fps,
        bootstrap=bool(int(pfields["bootstrap"])),
        seed=int(pfields["seed"]),
    )
    meta_line = take(5, "meta")
    meta = dict(tok.split(":", 1) for tok in meta_line.split()) if meta_line else {}
    n_trees = int(take(6, "n_trees"))
    if n_trees < 1:
        raise ModelFormatError(f"{path}: n_trees={n_trees}, need at least 1")
    trees = []
    i = 7
    try:
        for t in range(n_trees):
            head = take(i, "tree")
            n_nodes = int(head.split("nodes=")[1])
            feature = np.asarray(take(i + 1, "feature").split(), dtype=np.int32)
            left = np.asarray(take(i + 2, "left").split(), dtype=np.int32)
            right = np.asarray(take(i + 3, "right").split(), dtype=np.int32)
            payload = np.asarray(take(i + 4, "payload").split(), dtype=np.float64)
            if (n_nodes < 1 or feature.size != n_nodes or left.size != n_nodes
                    or right.size != n_nodes or payload.size != n_nodes * payload_width):
                raise ModelFormatError(f"{path}: tree block size mismatch at line {i + 1}")
            _check_nodes(path, t, feature, left, right, input_width)
            trees.append(_Tree(feature, left, right, payload.reshape(n_nodes, payload_width)))
            i += 5
    except (ValueError, IndexError) as e:
        raise ModelFormatError(f"{path}: malformed tree block: {e}") from e
    return ForestModel(kind, params, input_width, payload_width, trees, meta)


def _check_nodes(path, t: int, feature: np.ndarray, left: np.ndarray,
                 right: np.ndarray, input_width: int) -> None:
    """Reject a node table that a walk could leave or loop in: an internal
    node tests an input bit and both its children come after it; a leaf
    holds -1 in all three fields."""
    idx = np.arange(feature.size)
    leaf = feature < 0
    bad_leaf = leaf & ((feature != -1) | (left != -1) | (right != -1))
    bad_node = ~leaf & ((feature >= input_width) | (left <= idx) | (right <= idx)
                        | (left >= feature.size) | (right >= feature.size))
    bad = np.flatnonzero(bad_leaf | bad_node)
    if bad.size:
        j = int(bad[0])
        raise ModelFormatError(
            f"{path}: tree {t} node {j} is malformed (feature={feature[j]}, "
            f"left={left[j]}, right={right[j]}, {input_width} input bits, "
            f"{feature.size} nodes)")
