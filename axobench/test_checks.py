"""Tests of the benchmark's output checks: each check accepts what the
program wrote and rejects a perturbed copy.

    python3 -m pytest axobench/test_checks.py -q
"""

import dataclasses
import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from axokit import build_netlist, parse_kind  # noqa: E402
from axokit.cli import main  # noqa: E402
from axokit.forest import load_model  # noqa: E402

SEED, CYCLES, N_NOISE, SS, DSE = 3, 2048, 2, 0.6, 0.7
BM, PM = "avg_abs_rel_err", "pdplut"


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """A small mul:s4 -> mul:s6 ConSS flow through the CLI."""
    d = str(tmp_path_factory.mktemp("flow"))

    def p(name):
        return os.path.join(d, name)

    s = ["--seed", str(SEED)]
    est = f"{p('be.fmodel')},{p('pe.fmodel')}"
    for argv in (
        ["characterize", "--op", "mul:s4", "--sample", "300", *s, "-o", p("l.csv")],
        ["characterize", "--op", "mul:s6", "--sample", "60", *s, "-o", p("h.csv")],
        ["analyze", "--dataset", p("h.csv"), "--low", p("l.csv"), *s, "--out-dir", p("analysis")],
        ["match", "--low", p("l.csv"), "--high", p("h.csv"), "--n-noise", str(N_NOISE), *s,
         "-o", p("train.csv")],
        ["train", "--training", p("train.csv"), "--n-trees", "4", "--max-depth", "6", *s,
         "-o", p("clf.fmodel")],
        ["train", "--dataset", p("h.csv"), "--target", BM, "--n-trees", "4", *s, "-o", p("be.fmodel")],
        ["train", "--dataset", p("h.csv"), "--target", PM, "--n-trees", "4", *s, "-o", p("pe.fmodel")],
        ["supersample", "--model", p("clf.fmodel"), "--low", p("l.csv"), "--factor", str(SS),
         "--estimators", est, *s, "-o", p("pool.csv")],
        ["dse", "--train", p("h.csv"), "--factor", str(DSE), "--pop", "20", "--generations", "10",
         "--init", p("pool.csv"), "--estimators", est, "--validate", "--known", p("h.csv"), *s,
         "--out-dir", p("run")],
        ["report", "--train", p("h.csv"), "--run", f"conss={p('run')}", "--factors", str(DSE),
         "-o", p("report.csv")],
    ):
        assert main(argv) == 0, argv
    return d


@pytest.fixture
def copy(flow, tmp_path):
    """A private copy of the flow's artifacts to perturb."""
    dst = str(tmp_path / "flow")
    shutil.copytree(flow, dst)
    return dst


def edit(path, fn):
    """Rewrite the text file at ``path`` as ``fn(lines)``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(fn(lines)) + "\n")


def set_field(lines, row, col, value):
    parts = lines[row].split(",")
    parts[col] = value
    lines[row] = ",".join(parts)
    return lines


def bump(x):
    return x + max(abs(x), 1.0) * 1e-6


def tables(d):
    return checks.CharTable(os.path.join(d, "l.csv")), checks.CharTable(os.path.join(d, "h.csv"))


def models(d):
    return [checks.TextModel(os.path.join(d, f)) for f in ("clf.fmodel", "be.fmodel", "pe.fmodel")]


# -- interpreter ----------------------------------------------------------

@pytest.mark.parametrize("token", ["adder:u4", "mul:s4", "mul:s6"])
def test_all_ones_exact(token):
    checks.check_all_ones_exact(build_netlist(parse_kind(token)))


def test_all_ones_exact_rejects_a_miswired_cell():
    net = build_netlist(parse_kind("mul:s4"))
    mid = net.out_signals[len(net.out_signals) // 2]
    cells = [dataclasses.replace(c, kind="CarryXor", inputs=(0, 0)) if c.out == mid else c
             for c in net.cells]
    broken = type("Net", (), dict(vars(net), cells=cells))()
    with pytest.raises(checks.CheckError):
        checks.check_all_ones_exact(broken)


def test_behaviour_matches_program(flow):
    low, high = tables(flow)
    checks.check_behaviour(low, build_netlist(parse_kind("mul:s4")), SEED, CYCLES)
    checks.check_behaviour(high, build_netlist(parse_kind("mul:s6")), SEED, CYCLES)


@pytest.mark.parametrize("metric", ["avg_abs_err", "avg_abs_rel_err", "max_abs_err",
                                    "err_rate", "power_proxy"])
def test_behaviour_rejects_perturbed_metric(flow, metric):
    low, _ = tables(flow)
    row = int(np.argmax(low.values["avg_abs_err"]))
    low.values[metric][row] = bump(low.values[metric][row])
    with pytest.raises(checks.CheckError, match=metric):
        checks.check_behaviour(low, build_netlist(parse_kind("mul:s4")), SEED, CYCLES, [row])


def test_behaviour_rejects_other_activity_seed(flow):
    low, _ = tables(flow)
    with pytest.raises(checks.CheckError, match="power_proxy"):
        checks.check_behaviour(low, build_netlist(parse_kind("mul:s4")), SEED + 1, CYCLES, [0])


# -- identities ------------------------------------------------------------

def test_identities_hold(flow):
    for t in tables(flow):
        checks.check_identities(t)


def _all_ones_row(t):
    t.bits[0] = 1
    t.uints[0] = (1 << t.bits.shape[1]) - 1
    t.values["lut_util"][0] = t.bits.shape[1]
    t.values["pdplut"][0] = t.values["pdp"][0] * t.bits.shape[1]
    t.values["avg_abs_err"][0] = t.values["max_abs_err"][0] = 1.0


def _duplicate_row(t):
    t.uints[1], t.bits[1] = t.uints[0], t.bits[0]
    for v in t.values.values():
        v[1] = v[0]


PERTURB = {
    "lut_util": lambda t: t.values["lut_util"].__setitem__(0, t.values["lut_util"][0] + 1),
    "pdp": lambda t: t.values["pdp"].__setitem__(0, bump(t.values["pdp"][0])),
    "pdplut": lambda t: t.values["pdplut"].__setitem__(0, bump(t.values["pdplut"][0])),
    "err_rate": lambda t: t.values["err_rate"].__setitem__(0, 1.5),
    "avg_abs_err": lambda t: t.values["avg_abs_err"].__setitem__(0, t.values["max_abs_err"][0] + 1),
    "config_uint": lambda t: t.uints.__setitem__(0, t.uints[0] + 1),
    "all-ones": _all_ones_row,
    "duplicate": _duplicate_row,
}


@pytest.mark.parametrize("what", sorted(PERTURB))
def test_identities_reject(flow, what):
    low, _ = tables(flow)
    PERTURB[what](low)
    with pytest.raises(checks.CheckError):
        checks.check_identities(low)


# -- analyze and match -------------------------------------------------------

def test_analyze_and_match_hold(flow):
    low, high = tables(flow)
    checks.check_analyze(os.path.join(flow, "analysis"), high, low, BM, PM)
    checks.check_match(os.path.join(flow, "train.csv"), low, high, N_NOISE, BM, PM)


@pytest.mark.parametrize("name,fn", [
    ("scaled_points.csv", lambda ls: set_field(ls, 2, 1, repr(bump(float(ls[2].split(",")[1]))))),
    ("clusters.csv", lambda ls: ls[:-1]),
    ("hist_pareto.csv", lambda ls: set_field(ls, 2, 2, str(int(ls[2].split(",")[2]) + 1))),
])
def test_analyze_rejects(copy, name, fn):
    edit(os.path.join(copy, "analysis", name), fn)
    low, high = tables(copy)
    with pytest.raises(checks.CheckError):
        checks.check_analyze(os.path.join(copy, "analysis"), high, low, BM, PM)


def _swap_low_part(lines):
    x, y = lines[2].split(",")
    other = next(ln.split(",")[0] for ln in lines[2:] if ln.split(",")[0][N_NOISE:] != x[N_NOISE:])
    lines[2] = f"{x[:N_NOISE]}{other[N_NOISE:]},{y}"
    return lines


@pytest.mark.parametrize("fn", [_swap_low_part, lambda ls: ls[:-1]])
def test_match_rejects(copy, fn):
    edit(os.path.join(copy, "train.csv"), fn)
    low, high = tables(copy)
    with pytest.raises(checks.CheckError):
        checks.check_match(os.path.join(copy, "train.csv"), low, high, N_NOISE, BM, PM)


# -- models and pool ------------------------------------------------------------

def test_walker_agrees_with_program(flow):
    X = np.random.default_rng(0).integers(0, 2, size=(50, 21), dtype=np.uint8)
    for f in ("be.fmodel", "pe.fmodel"):
        path = os.path.join(flow, f)
        assert np.array_equal(checks.TextModel(path).predict(X), load_model(path).predict_values(X))


def test_walker_rejects_edited_model(copy):
    edit(os.path.join(copy, "be.fmodel"),
         lambda ls: [ln.replace("payload=", "payload=1") if ln.startswith("payload=") else ln
                     for ln in ls])
    with pytest.raises(checks.CheckError, match="checksum"):
        checks.TextModel(os.path.join(copy, "be.fmodel"))


def test_pool_holds(flow):
    low, _ = tables(flow)
    clf, be, pe = models(flow)
    assert len(checks.read_table(os.path.join(flow, "pool.csv"))[2]) > 2
    checks.check_pool(os.path.join(flow, "pool.csv"), clf, be, pe, low, SS, N_NOISE, BM, PM)


def _zero_config(lines):
    bits = lines[2].split(",")[0]
    return set_field(set_field(lines, 2, 0, "0" * len(bits)), 2, 1, "0")


@pytest.mark.parametrize("fn", [
    lambda ls: ls + [ls[2]],                                        # duplicate config
    _zero_config,                                                   # all-zeros config
    lambda ls: ls[:2] + ls[3:],                                     # missing candidate
    lambda ls: set_field(ls, 2, 3, str(int(ls[2].split(",")[3]) ^ 1)),   # wrong trace
    lambda ls: set_field(ls, 2, 5, repr(bump(float(ls[2].split(",")[5])))),  # prediction
    lambda ls: set_field(ls, 3, 6, repr(bump(float(ls[3].split(",")[6])))),
])
def test_pool_rejects(copy, fn):
    edit(os.path.join(copy, "pool.csv"), fn)
    low, _ = tables(copy)
    clf, be, pe = models(copy)
    with pytest.raises(checks.CheckError):
        checks.check_pool(os.path.join(copy, "pool.csv"), clf, be, pe, low, SS, N_NOISE, BM, PM)


# -- fronts and report -------------------------------------------------------------

def test_dse_and_report_hold(flow):
    _, high = tables(flow)
    _, be, pe = models(flow)
    run = os.path.join(flow, "run")
    assert len(checks.read_table(os.path.join(run, "ppf.csv"))[2]) > 1
    checks.check_dse(run, high, be, pe, DSE, BM, PM)
    checks.check_report(os.path.join(flow, "report.csv"), run, high, DSE, "conss", BM, PM)


def _dominated_copy(lines):
    bits, u, b, p = lines[2].split(",")
    return lines + [f"{bits},{u},{bump(float(b))!r},{bump(float(p))!r}"]


def _manifest(key, fn):
    return lambda ls: [f"{key}={fn(ln.split('=', 1)[1])}" if ln.startswith(key + "=") else ln
                       for ln in ls]


@pytest.mark.parametrize("name,fn", [
    ("manifest.txt", _manifest("final_hypervolume", lambda v: repr(bump(float(v))))),
    ("manifest.txt", _manifest("b_max", lambda v: repr(bump(float(v))))),
    ("ppf.csv", _dominated_copy),
    ("ppf.csv", lambda ls: set_field(ls, 2, 2, repr(bump(float(ls[2].split(",")[2]))))),
    ("progress.csv", lambda ls: set_field(ls, 2, 1, repr(float(ls[1].split(",")[1]) / 2))),
    ("vpf.csv", lambda ls: ls[:-1]),
])
def test_dse_rejects(copy, name, fn):
    edit(os.path.join(copy, "run", name), fn)
    _, high = tables(copy)
    _, be, pe = models(copy)
    with pytest.raises(checks.CheckError):
        checks.check_dse(os.path.join(copy, "run"), high, be, pe, DSE, BM, PM)


@pytest.mark.parametrize("row,col", [(1, 2), (2, 2), (2, 3)])
def test_report_rejects(copy, row, col):
    edit(os.path.join(copy, "report.csv"),
         lambda ls: set_field(ls, row, col, repr(bump(float(ls[row].split(",")[col])))))
    _, high = tables(copy)
    with pytest.raises(checks.CheckError):
        checks.check_report(os.path.join(copy, "report.csv"), os.path.join(copy, "run"),
                            high, DSE, "conss", BM, PM)


# -- digests -------------------------------------------------------------------------

def test_digests_reject_one_changed_byte(flow, copy):
    checks.check_same(checks.digests(flow), checks.digests(copy), "copy")
    with open(os.path.join(copy, "report.csv"), "ab") as fh:
        fh.write(b" ")
    with pytest.raises(checks.CheckError):
        checks.check_same(checks.digests(flow), checks.digests(copy), "copy")
