"""The shared artifact text codec, through every tabular importer."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from axokit import Family, OperatorKind
from axokit.artifacts import write_lines
from axokit.characterize import import_csv
from axokit.conss import ConssPool, export_pool_csv, import_pool_csv
from axokit.errors import SchemaError
from axokit.forest import ForestModel, ForestParams, _Tree, load_model, save_model
from axokit.matching import TrainingSet, export_training_csv, import_training_csv


@pytest.mark.parametrize("reader", [import_csv, import_training_csv, import_pool_csv])
def test_malformed_preamble_token_names_file(tmp_path, reader):
    path = tmp_path / "bad.csv"
    path.write_text("# kind=adder:u4 seed=0 stray\nheader\n")
    with pytest.raises(SchemaError, match=r"bad\.csv: malformed preamble token 'stray'"):
        reader(path)


def test_failed_write_leaves_no_partial_file(tmp_path):
    def rows():
        yield "# kind=adder:u4"
        raise RuntimeError("writer died")

    target = tmp_path / "out.csv"
    with pytest.raises(RuntimeError):
        write_lines(target, rows())
    assert list(tmp_path.iterdir()) == []
    # an existing target keeps its old contents
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        write_lines(target, rows())
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]
    write_lines(target, ["new"])
    assert target.read_text() == "new\n"
    assert list(tmp_path.iterdir()) == [target]


# -- column codecs: export -> import -> re-export -----------------------

SPECIAL = [0.0, -0.0, 1.0, 0.5, 1 / 3, 5e-324, 2.2250738585072014e-308, 1e308,
           -1e-300, math.inf, -math.inf, math.nan]


def random_values(rng, n):
    """Floats with every special value mixed in; NaN only as the canonical one."""
    v = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
    pick = rng.random(n) < 0.3
    v[pick] = rng.choice(SPECIAL, size=int(pick.sum()))
    return v


def distinct_rows(rng, n, width):
    rows = np.unique((rng.random((n, width)) < rng.random()).astype(np.uint8), axis=0)
    return rows[rng.permutation(len(rows))]


def corrupt(line, field, how, rng):
    """``line`` with one field broken: a bad character, a lost character,
    or (for a UINT field) a different number."""
    parts = line.split(",")
    s = parts[field]
    if how == "alphabet":
        j = int(rng.integers(len(s)))
        parts[field] = s[:j] + str(rng.choice(["2", "x", " ", "é", "-"])) + s[j + 1:]
    elif how == "width":
        parts[field] = s[1:] if len(s) > 1 and rng.random() < 0.5 else s + "0"
    else:
        parts[field] = str(int(s) + 1)
    return ",".join(parts)


def rewrite_row(path, k, new):
    lines = path.read_text().splitlines()
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")][1:]
    lines[body[k]] = new(lines[body[k]])
    path.write_text("\n".join(lines) + "\n")
    return body[k] + 1


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), low=st.integers(1, 12),
       n_noise=st.integers(0, 4), high=st.integers(1, 70),
       how=st.sampled_from(["alphabet", "width"]), field=st.integers(0, 1))
def test_training_csv_round_trip_property(tmp_path_factory, seed, n, low, n_noise, high,
                                          how, field):
    rng = np.random.default_rng(seed)
    X = (rng.random((n, low + n_noise)) < 0.5).astype(np.uint8)
    Y = (rng.random((n, high)) < 0.5).astype(np.uint8)
    meta = {"low_kind": f"adder:u{low}", "high_kind": f"adder:u{high}",
            "n_noise": str(n_noise), "mode": "enumerate_all"}
    d = tmp_path_factory.mktemp("train")
    export_training_csv(TrainingSet(X, Y, n_noise, meta), d / "a.csv")
    back = import_training_csv(d / "a.csv")
    assert back.X.dtype == np.uint8 and np.array_equal(back.X, X)
    assert back.Y.dtype == np.uint8 and np.array_equal(back.Y, Y)
    assert back.n_noise == n_noise and back.meta == meta
    export_training_csv(back, d / "b.csv")
    assert (d / "b.csv").read_bytes() == (d / "a.csv").read_bytes()

    k = int(rng.integers(n))
    lineno = rewrite_row(d / "a.csv", k, lambda ln: corrupt(ln, field, how, rng))
    with pytest.raises(SchemaError, match=rf"a\.csv:{lineno}: "):
        import_training_csv(d / "a.csv")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40), width=st.integers(1, 70),
       with_pred=st.booleans(), how=st.sampled_from(["alphabet", "width", "uint"]))
def test_pool_csv_round_trip_property(tmp_path_factory, seed, n, width, with_pred, how):
    rng = np.random.default_rng(seed)
    kind = OperatorKind(Family.UNSIGNED_ADDER, width)
    bits = distinct_rows(rng, n, width)
    trace = [(int(rng.integers(2**40)), int(rng.integers(16))) for _ in range(len(bits))]
    pred = None
    if with_pred:
        pred = {"avg_abs_rel_err": random_values(rng, len(bits)),
                "pdplut": random_values(rng, len(bits))}
    pool = ConssPool(kind, bits, trace, "conss", predicted=pred, meta={"n_noise": "2"})
    d = tmp_path_factory.mktemp("pool")
    export_pool_csv(pool, d / "a.csv")
    back = import_pool_csv(d / "a.csv")
    assert back.kind == kind and back.bits.dtype == np.uint8
    assert np.array_equal(back.bits, bits)
    assert back.uints == [c.uint for c in pool.configs]
    assert back.trace == trace
    if with_pred:
        for k, v in pred.items():
            assert back.predicted[k].tobytes() == v.tobytes()
    else:
        assert back.predicted is None
    export_pool_csv(back, d / "b.csv")
    assert (d / "b.csv").read_bytes() == (d / "a.csv").read_bytes()

    k = int(rng.integers(len(bits)))
    lineno = rewrite_row(d / "a.csv", k, lambda ln: corrupt(ln, 1 if how == "uint" else 0,
                                                            how, rng))
    with pytest.raises(SchemaError, match=rf"a\.csv:{lineno}: "):
        import_pool_csv(d / "a.csv")


def random_tree(rng, input_width, payload_width):
    """A node table in preorder: every child comes after its parent."""
    feature, left, right = [], [], []

    def grow(depth):
        i = len(feature)
        feature.append(-1)
        left.append(-1)
        right.append(-1)
        if depth < 5 and rng.random() < 0.6:
            feature[i] = int(rng.integers(input_width))
            left[i] = grow(depth + 1)
            right[i] = grow(depth + 1)
        return i

    grow(0)
    payload = random_values(rng, len(feature) * payload_width)
    return _Tree(np.asarray(feature, dtype=np.int32), np.asarray(left, dtype=np.int32),
                 np.asarray(right, dtype=np.int32), payload.reshape(-1, payload_width))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 4),
       input_width=st.integers(1, 20), payload_width=st.integers(1, 9))
def test_model_file_round_trip_property(tmp_path_factory, seed, n_trees, input_width,
                                        payload_width):
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, input_width, payload_width) for _ in range(n_trees)]
    model = ForestModel("classifier", ForestParams(n_trees=n_trees, seed=seed % 1000),
                        input_width, payload_width, trees, meta={"n_noise": "3"})
    d = tmp_path_factory.mktemp("model")
    save_model(model, d / "a.fmodel")
    back = load_model(d / "a.fmodel")
    assert back.params == model.params and back.meta == model.meta
    for a, b in zip(back.trees, trees):
        assert np.array_equal(a.feature, b.feature)
        assert np.array_equal(a.left, b.left)
        assert np.array_equal(a.right, b.right)
        assert a.payload.tobytes() == b.payload.tobytes()
    save_model(back, d / "b.fmodel")
    assert (d / "b.fmodel").read_bytes() == (d / "a.fmodel").read_bytes()
