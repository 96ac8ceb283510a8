"""Independent output checks for the axokit benchmark.

Nothing here calls axokit's simulation, statistics, forest or search code.
Artifacts are parsed from their text form, behaviour is recomputed by
interpreting ``OperatorNetlist.cells`` over unpacked integer arrays, models
are re-walked from their text files and fronts are re-derived from first
principles.  Every check raises :class:`CheckError` on the first mismatch.
"""

from __future__ import annotations

import hashlib
import math
import os

import numpy as np

METRICS = ("avg_abs_err", "avg_abs_rel_err", "max_abs_err", "err_rate",
           "lut_util", "cpd_proxy", "power_proxy", "pdp", "pdplut")

# Metrics that are sums of floats in another order than the program's, or
# products of rounded values, compare under this relative tolerance; every
# integer-valued quantity compares exactly.
REL_TOL = 1e-9

# RNG stream tag of the documented activity stream SeedSequence((seed, 1, uint)).
ACTIVITY_TAG = 1


class CheckError(AssertionError):
    """An artifact disagrees with its independent recomputation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _close(x: float, y: float, rel: float = REL_TOL) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y), 1e-300)


# -- artifact parsing ---------------------------------------------------

def read_table(path):
    """(preamble dict, header list, rows as lists of strings)."""
    meta, header, rows = {}, None, []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                for tok in line[1:].split():
                    k, _, v = tok.partition("=")
                    meta[k] = v
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    require(header is not None, f"{path}: no header line")
    for r in rows:
        require(len(r) == len(header), f"{path}: row {r[:2]} has {len(r)} fields")
    return meta, header, rows


def bits_of(bitstring: str) -> np.ndarray:
    """MSB-first CSV bitstring -> uint8 array with l_0 in column 0."""
    return np.frombuffer(bitstring[::-1].encode("ascii"), dtype=np.uint8) - ord("0")


def uint_of(bits) -> int:
    return sum(int(b) << i for i, b in enumerate(bits))


class CharTable:
    """A characterization CSV as arrays: config bits, uints and metrics."""

    def __init__(self, path):
        self.path = path
        self.meta, header, rows = read_table(path)
        require(header == ["config_bits", "config_uint", *METRICS],
                f"{path}: unexpected header {header}")
        self.bitstrings = [r[0] for r in rows]
        self.bits = np.asarray([bits_of(r[0]) for r in rows], dtype=np.uint8)
        self.uints = [int(r[1]) for r in rows]
        self.values = {m: np.asarray([float(r[2 + i]) for r in rows])
                       for i, m in enumerate(METRICS)}

    def __len__(self):
        return len(self.uints)

    def scaled(self, metric: str) -> np.ndarray:
        x = self.values[metric]
        lo, hi = x.min(), x.max()
        return np.zeros_like(x) if hi == lo else (x - lo) / (hi - lo)


def read_manifest(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            k, sep, v = line.strip().partition("=")
            if sep:
                out[k] = v
    return out


# -- netlist interpreter ------------------------------------------------

def _operand_bits(v: np.ndarray, n: int) -> list[np.ndarray]:
    u = v & ((1 << n) - 1)
    return [((u >> i) & 1).astype(np.uint8) for i in range(n)]


def interpret(net, cfg: np.ndarray, a: np.ndarray, b: np.ndarray, toggles: bool = False):
    """Evaluate ``net`` for configs ``cfg`` (C, L) over operands ``a``/``b``.

    Operands are (N,) shared by all configs or (C, N) per config.  Every
    cell is evaluated from its documented meaning: a removed LUT drives 0,
    and so does the carry-mux data input it gates.  Returns the signed or
    unsigned operator outputs (C, N) and, with ``toggles``, the number of
    cell-output transitions between consecutive lanes per config (C,).
    """
    cfg = np.asarray(cfg, dtype=np.uint8)
    n = net.kind.width
    c_count = cfg.shape[0]
    shape = (c_count, a.shape[-1])
    sig = {0: np.zeros(shape, np.uint8), 1: np.ones(shape, np.uint8)}
    for s, col in zip(net.a_signals, _operand_bits(a, n)):
        sig[s] = np.broadcast_to(col, shape)
    for s, col in zip(net.b_signals, _operand_bits(b, n)):
        sig[s] = np.broadcast_to(col, shape)
    kept = {i: cfg[:, i][:, None] for i in range(cfg.shape[1])}
    flips = np.zeros(c_count, dtype=np.int64)
    for c in net.cells:
        ins = [sig[s] for s in c.inputs]
        if c.kind == "Lut":
            if len(ins) == 2:
                v = ins[0] ^ ins[1]
            else:  # Baugh-Wooley LUT: two AND terms, each optionally complemented
                v = ((ins[0] & ins[1]) ^ (c.flags & 1)) ^ ((ins[2] & ins[3]) ^ (c.flags >> 1 & 1))
            if c.removable:
                v = v & kept[c.config_index]
        elif c.kind == "CarryMux":
            sel, chain, d0, d1 = ins
            data = (d0 & d1) ^ (c.flags & 1)
            if c.config_index >= 0:
                data = data & kept[c.config_index]
            v = np.where(sel != 0, chain, data)
        elif c.kind == "CarryXor":
            v = ins[0] ^ ins[1]
        else:
            raise CheckError(f"unknown cell kind {c.kind!r}")
        v = np.broadcast_to(v, shape).astype(np.uint8)
        sig[c.out] = v
        if toggles:
            flips += np.count_nonzero(v[:, 1:] != v[:, :-1], axis=1)
    out = np.zeros(shape, dtype=np.int64)
    for pos, s in enumerate(net.out_signals):
        out += sig[s].astype(np.int64) << pos
    if net.kind.family.value == "mul:s":
        nbits = 2 * n
        out -= (out >> (nbits - 1)) << nbits
    return (out, flips) if toggles else out


def _exact(kind, a, b):
    return a * b if kind.family.value == "mul:s" else a + b


def operand_grid(kind):
    if kind.family.value == "mul:s":
        lo, hi = -(1 << (kind.width - 1)), 1 << (kind.width - 1)
    else:
        lo, hi = 0, 1 << kind.width
    v = np.arange(lo, hi, dtype=np.int64)
    return np.repeat(v, v.size), np.tile(v, v.size), (lo, hi)


def check_all_ones_exact(net) -> None:
    """The interpreter must reproduce exact arithmetic with every LUT kept."""
    a, b, _ = operand_grid(net.kind)
    out = interpret(net, np.ones((1, net.config_len), np.uint8), a, b)[0]
    bad = np.count_nonzero(out != _exact(net.kind, a, b))
    require(bad == 0, f"{net.kind.token}: all-ones config gives {bad} inexact pairs")


def check_identities(t: CharTable) -> None:
    """Per-row identities every characterization record must satisfy."""
    v = t.values
    for i, (s, u) in enumerate(zip(t.bitstrings, t.uints)):
        where = f"{t.path}: config {u}"
        require(uint_of(t.bits[i]) == u, f"{where}: config_uint does not match bits {s}")
        require(v["lut_util"][i] == int(t.bits[i].sum()), f"{where}: lut_util != popcount")
        require(_close(v["pdp"][i], v["power_proxy"][i] * v["cpd_proxy"][i]),
                f"{where}: pdp != power_proxy*cpd_proxy")
        require(_close(v["pdplut"][i], v["pdp"][i] * v["lut_util"][i]),
                f"{where}: pdplut != pdp*lut_util")
        require(0.0 <= v["err_rate"][i] <= 1.0, f"{where}: err_rate outside [0, 1]")
        require(v["avg_abs_err"][i] <= v["max_abs_err"][i], f"{where}: avg_abs_err > max_abs_err")
        if t.bits[i].all():
            for m in ("avg_abs_err", "avg_abs_rel_err", "max_abs_err", "err_rate"):
                require(v[m][i] == 0.0, f"{where}: all-ones config has {m}={v[m][i]}")
    require(len(set(t.uints)) == len(t.uints), f"{t.path}: duplicate configs")


def check_behaviour(t: CharTable, net, seed: int, cycles: int, rows=None) -> None:
    """Recompute the four behaviour metrics over all operand pairs and the
    toggle count over the activity stream, for the given row indices."""
    rows = list(range(len(t)) if rows is None else rows)
    a, b, (lo, hi) = operand_grid(net.kind)
    exact = _exact(net.kind, a, b)
    denom = np.maximum(1, np.abs(exact)).astype(np.float64)
    chunk = max(1, (1 << 18) // a.size)
    for start in range(0, len(rows), chunk):
        idx = rows[start:start + chunk]
        out = interpret(net, t.bits[idx], a, b)
        for j, i in enumerate(idx):
            err = np.abs(exact - out[j])
            got = {
                "avg_abs_err": int(err.sum()) / err.size,
                "avg_abs_rel_err": float((err / denom).sum()) / err.size,
                "max_abs_err": float(err.max()),
                "err_rate": np.count_nonzero(err) / err.size,
            }
            for m, g in got.items():
                require(_close(t.values[m][i], g),
                        f"{t.path}: config {t.uints[i]} {m}={t.values[m][i]!r}, recomputed {g!r}")
    chunk = max(1, (1 << 17) // cycles)
    for start in range(0, len(rows), chunk):
        idx = rows[start:start + chunk]
        ops = np.empty((2, len(idx), cycles), dtype=np.int64)
        for j, i in enumerate(idx):
            rng = np.random.default_rng(np.random.SeedSequence((seed, ACTIVITY_TAG, t.uints[i])))
            ops[0, j] = rng.integers(lo, hi, size=cycles, dtype=np.int64)
            ops[1, j] = rng.integers(lo, hi, size=cycles, dtype=np.int64)
        _, flips = interpret(net, t.bits[idx], ops[0], ops[1], toggles=True)
        for j, i in enumerate(idx):
            power = int(flips[j]) / (cycles - 1)
            require(_close(t.values["power_proxy"][i], power),
                    f"{t.path}: config {t.uints[i]} power_proxy={t.values['power_proxy'][i]!r}, "
                    f"recomputed {power!r} from {int(flips[j])} toggles")


# -- analyze and match ----------------------------------------------------

def check_analyze(out_dir, high: CharTable, low: CharTable, bm: str, pm: str) -> None:
    """Scaled points, a cluster partition that matches the centroid sizes,
    and |L|x|H| distances in every histogram."""
    _, _, rows = read_table(os.path.join(out_dir, "scaled_points.csv"))
    want = {u: (x, y) for u, x, y in zip(high.uints, high.scaled(bm), high.scaled(pm))}
    require(sorted(int(r[0]) for r in rows) == sorted(want), "scaled_points: config set differs")
    for r in rows:
        x, y = want[int(r[0])]
        require(_close(float(r[1]), x) and _close(float(r[2]), y),
                f"scaled_points: config {r[0]} is not min-max scaled")
    _, _, members = read_table(os.path.join(out_dir, "clusters.csv"))
    require(sorted(int(r[0]) for r in members) == sorted(want),
            "clusters: members are not a partition of the dataset")
    _, _, cents = read_table(os.path.join(out_dir, "centroids.csv"))
    sizes = {int(r[0]): int(r[3]) for r in cents}
    counted: dict[int, int] = {}
    for r in members:
        counted[int(r[1])] = counted.get(int(r[1]), 0) + 1
    require(counted == sizes, "centroids: sizes do not match cluster membership")
    for kind in ("euclidean", "manhattan", "pareto"):
        _, _, hist = read_table(os.path.join(out_dir, f"hist_{kind}.csv"))
        total = sum(int(r[2]) for r in hist)
        require(total == len(low) * len(high),
                f"hist_{kind}: {total} distances, expected {len(low) * len(high)}")


def check_match(train_path, low: CharTable, high: CharTable, n_noise: int,
                bm: str, pm: str) -> None:
    """Every high config appears once per noise pattern, paired with its
    brute-force nearest low config (Euclidean, ties to the lowest uint)."""
    _, header, rows = read_table(train_path)
    require(header == ["input_bits", "output_bits"], f"{train_path}: bad header")
    require(len(rows) == len(high) << n_noise,
            f"{train_path}: {len(rows)} rows, expected {len(high) << n_noise}")
    lb, lp = low.scaled(bm), low.scaled(pm)
    hb, hp = high.scaled(bm), high.scaled(pm)
    low_order = np.argsort(low.uints, kind="stable")
    got: dict[int, list] = {}
    for x, y in rows:
        got.setdefault(uint_of(bits_of(y)), []).append(bits_of(x))
    require(sorted(got) == sorted(high.uints), f"{train_path}: output configs differ from high set")
    for j, u in enumerate(high.uints):
        d = np.sqrt((lb[low_order] - hb[j]) ** 2 + (lp[low_order] - hp[j]) ** 2)
        nearest = low.uints[low_order[int(np.argmin(d))]]
        inputs = got[u]
        low_part = {uint_of(x[:low.bits.shape[1]]) for x in inputs}
        noise = sorted(uint_of(x[low.bits.shape[1]:]) for x in inputs)
        require(low_part == {nearest}, f"{train_path}: high {u} matched to {low_part}, nearest is {nearest}")
        require(noise == list(range(1 << n_noise)), f"{train_path}: high {u} noise patterns {noise}")


# -- forest models ----------------------------------------------------------

class TextModel:
    """A forest model file parsed from its documented text layout."""

    def __init__(self, path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        body = "\n".join(lines[:-1]) + "\n"
        require(lines[-1] == "checksum=" + hashlib.sha256(body.encode()).hexdigest(),
                f"{path}: checksum does not match body")
        fields = dict(l.split("=", 1) for l in lines[1:7])
        self.kind = fields["kind"]
        self.input_width = int(fields["input_width"])
        self.payload_width = int(fields["payload_width"])
        self.trees = []
        i = 7
        for _ in range(int(fields["n_trees"])):
            block = dict(l.split("=", 1) for l in lines[i + 1:i + 5])
            self.trees.append((
                np.asarray(block["feature"].split(), dtype=np.int64),
                np.asarray(block["left"].split(), dtype=np.int64),
                np.asarray(block["right"].split(), dtype=np.int64),
                np.asarray(block["payload"].split(), dtype=np.float64).reshape(-1, self.payload_width),
            ))
            i += 5

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Mean leaf payload over trees, (n, payload_width)."""
        X = np.asarray(X, dtype=np.uint8)
        require(X.shape[1] == self.input_width, "model input width mismatch")
        acc = np.zeros((X.shape[0], self.payload_width))
        rows = np.arange(X.shape[0])
        for feature, left, right, payload in self.trees:
            node = np.zeros(X.shape[0], dtype=np.int64)
            while True:
                f = feature[node]
                inner = f >= 0
                if not inner.any():
                    break
                step = np.where(X[rows, np.maximum(f, 0)] > 0, right[node], left[node])
                node = np.where(inner, step, node)
            acc += payload[node]
        return acc / len(self.trees)


# -- ConSS pool -------------------------------------------------------------

def seed_rows(low: CharTable, factor: float, bm: str, pm: str) -> np.ndarray:
    b, p = low.values[bm], low.values[pm]
    return np.flatnonzero((b <= factor * b.max()) & (p <= factor * p.max()))


def check_pool(pool_path, clf: TextModel, be: TextModel, pe: TextModel,
               low: CharTable, factor: float, n_noise: int, bm: str, pm: str) -> None:
    """The pool is exactly the distinct non-zero classifier majorities over
    every (seed, noise pattern), each traced to its first candidate, with
    predicted metrics from the two regressors."""
    require(clf.kind == "classifier" and be.kind == pe.kind == "regressor", "model kinds")
    _, header, rows = read_table(pool_path)
    require(header[-2:] == ["pred_behav", "pred_ppa"], f"{pool_path}: no predicted metrics")
    cfg = np.asarray([bits_of(r[0]) for r in rows], dtype=np.uint8)
    uints = [int(r[1]) for r in rows]
    require(all(u == uint_of(c) for u, c in zip(uints, cfg)), f"{pool_path}: uint/bits mismatch")
    require(len(set(uints)) == len(uints), f"{pool_path}: duplicate pool configs")
    require(all(u != 0 for u in uints), f"{pool_path}: all-zeros config in pool")
    seeds = seed_rows(low, factor, bm, pm)
    pats = np.arange(1 << n_noise)
    noise = ((pats[:, None] >> np.arange(n_noise)) & 1).astype(np.uint8)
    X = np.concatenate([np.repeat(low.bits[seeds], pats.size, axis=0),
                        np.tile(noise, (seeds.size, 1))], axis=1)
    majority = (clf.predict(X) >= 0.5).astype(np.uint8)
    first: dict[int, tuple[int, int]] = {}
    for k, row in enumerate(majority):
        u = uint_of(row)
        if u and u not in first:
            first[u] = (low.uints[seeds[k // pats.size]], int(pats[k % pats.size]))
    require(sorted(first) == uints, f"{pool_path}: {len(uints)} configs, "
            f"classifier majorities give {len(first)} distinct non-zero")
    for r, u in zip(rows, uints):
        require((int(r[2]), int(r[3])) == first[u], f"{pool_path}: config {u} has a wrong trace")
    for model, col in ((be, 5), (pe, 6)):
        pred = model.predict(cfg)[:, 0]
        for r, p in zip(rows, pred):
            require(_close(float(r[col]), p), f"{pool_path}: config {r[1]} predicted {r[col]}, walker {p!r}")


# -- fronts and reports --------------------------------------------------

def front_of(points):
    """Non-dominated (b, p, u) under minimisation, b ascending, duplicates
    collapsed to the lowest uint."""
    kept, best = [], math.inf
    for b, p, u in sorted(points):
        if p < best:
            kept.append((b, p, u))
            best = p
    return kept


def hypervolume(points, ref) -> float:
    """Area dominated by (b, p) points inside the box up to ``ref``."""
    pts = front_of([(b, p, 0) for b, p, *_ in points if b < ref[0] and p < ref[1]])
    area = 0.0
    for i, (b, p, _) in enumerate(pts):
        nxt = pts[i + 1][0] if i + 1 < len(pts) else ref[0]
        area += (nxt - b) * (ref[1] - p)
    return area


def check_dse(run_dir, high: CharTable, be: TextModel, pe: TextModel, factor: float,
              bm: str, pm: str) -> None:
    """Manifest constraints, re-predicted and non-dominated ppf, its
    hypervolume and monotone progress, and the vpf's config set."""
    man = read_manifest(os.path.join(run_dir, "manifest.txt"))
    b_max, p_max = float(man["b_max"]), float(man["p_max"])
    require(_close(b_max, factor * high.values[bm].max()) and
            _close(p_max, factor * high.values[pm].max()), "manifest: constraint box is wrong")
    _, _, rows = read_table(os.path.join(run_dir, "ppf.csv"))
    pts = [(float(r[2]), float(r[3]), int(r[1])) for r in rows]
    require(len(pts) == int(man["front_size"]), "ppf: row count != manifest front_size")
    require(all(b <= b_max and p <= p_max for b, p, _ in pts), "ppf: point outside the constraint box")
    require(front_of(pts) == pts, "ppf: points are not a sorted mutually non-dominated set")
    cfg = np.asarray([bits_of(r[0]) for r in rows], dtype=np.uint8)
    require([uint_of(c) for c in cfg] == [u for *_, u in pts], "ppf: uint/bits mismatch")
    for model, col in ((be, 0), (pe, 1)):
        pred = model.predict(cfg)[:, 0]
        for pt, p in zip(pts, pred):
            require(_close(pt[col], p), f"ppf: config {pt[2]} value {pt[col]!r}, walker {p!r}")
    hv = hypervolume(pts, (b_max, p_max))
    require(_close(hv, float(man["final_hypervolume"])),
            f"ppf: hypervolume {hv!r} != manifest {man['final_hypervolume']}")
    _, _, prog = read_table(os.path.join(run_dir, "progress.csv"))
    hvs = [float(r[1]) for r in prog]
    require(len(hvs) == int(man["max_generations"]) + 1, "progress: wrong generation count")
    require(all(x <= y for x, y in zip(hvs, hvs[1:])), "progress: archive hypervolume decreased")
    require(_close(hvs[-1], hv), "progress: last hypervolume != final")
    vpf = CharTable(os.path.join(run_dir, "vpf.csv"))
    require(sorted(vpf.uints) == sorted(u for *_, u in pts), "vpf: config set differs from ppf")
    fresh = len(set(vpf.uints) - set(high.uints))
    require(int(vpf.meta.get("validated", -1)) == fresh,
            f"vpf: validated={vpf.meta.get('validated')} but {fresh} configs are new")
    known = dict(zip(high.uints, range(len(high))))
    for i, u in enumerate(vpf.uints):
        if u in known:
            for m in METRICS:
                require(vpf.values[m][i] == high.values[m][known[u]],
                        f"vpf: known config {u} {m} differs from the dataset")


def check_report(report_path, run_dir, high: CharTable, factor: float,
                 method: str, bm: str, pm: str) -> None:
    """Train and run hypervolumes inside the factor's constraint box, their
    ratio, and the validation count."""
    _, header, rows = read_table(report_path)
    require(header == ["factor", "method", "hypervolume", "ratio_to_train", "validated"],
            f"{report_path}: bad header")
    ref = (factor * high.values[bm].max(), factor * high.values[pm].max())
    vpf = CharTable(os.path.join(run_dir, "vpf.csv"))
    base = hypervolume(list(zip(high.values[bm], high.values[pm])), ref)
    run_hv = hypervolume(list(zip(vpf.values[bm], vpf.values[pm])), ref)
    by_method = {r[1]: r for r in rows}
    require(set(by_method) == {"train", method} and len(rows) == 2, f"{report_path}: rows {rows}")
    t, r = by_method["train"], by_method[method]
    require(_close(float(t[0]), factor) and _close(float(r[0]), factor), f"{report_path}: factor")
    require(_close(float(t[2]), base), f"{report_path}: train hypervolume {t[2]}, recomputed {base!r}")
    require(_close(float(r[2]), run_hv), f"{report_path}: {method} hypervolume {r[2]}, recomputed {run_hv!r}")
    require(_close(float(r[3]), run_hv / base), f"{report_path}: ratio {r[3]}")
    require(r[4] == vpf.meta.get("validated"), f"{report_path}: validated {r[4]}")


# -- digests -------------------------------------------------------------------

def digests(root) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    out = {}
    for d, _, files in os.walk(root):
        for f in files:
            p = os.path.join(d, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def check_same(first: dict, other: dict, what: str) -> None:
    require(first.keys() == other.keys(), f"{what}: artifact set differs")
    diff = [k for k in first if first[k] != other[k]]
    require(not diff, f"{what}: artifacts differ: {diff}")
