"""Behavioral metrics, proxy PPA, dataset plumbing, and CSV persistence."""

import math

import numpy as np
import pytest

from axokit import build_netlist, characterize, evaluate, parse_kind
from axokit.characterize import (
    ActivityPolicy,
    Exhaustive,
    ProxyWeights,
    Sampled,
    behav_characterize,
    characterize_dataset,
    cpd_proxy,
    export_csv,
    import_csv,
    ppa_characterize,
    sample_configs,
)
from axokit.errors import CapacityError, DuplicateConfigError, SchemaError
from axokit.operators import AxoConfig, config_length

KIND_W = {"Lut": 1.0}


def naive_behav(kind, config):
    """Direct double loop over the full operand space."""
    net = build_netlist(kind)
    lo, hi = kind.operand_range()
    abs_errs = []
    rel_errs = []
    wrong = 0
    for a in range(lo, hi):
        for b in range(lo, hi):
            exact = kind.exact(a, b)
            got = evaluate(net, config, a, b)
            err = abs(exact - got)
            abs_errs.append(err)
            rel_errs.append(err / max(1, abs(exact)))
            wrong += err != 0
    n = len(abs_errs)
    return (sum(abs_errs) / n, sum(rel_errs) / n, max(abs_errs), wrong / n)


@pytest.mark.parametrize("cfg_uint", [0b1110, 0b0101, 0b1001, 0b0011])
def test_behav_matches_naive_oracle_adder4(adder4, cfg_uint):
    cfg = AxoConfig.from_uint(cfg_uint, 4)
    m = behav_characterize(adder4, cfg, Exhaustive())
    avg, rel, mx, rate = naive_behav(adder4, cfg)
    assert m.avg_abs_err == pytest.approx(avg, abs=1e-12)
    assert m.avg_abs_rel_err == pytest.approx(rel, abs=1e-12)
    assert m.max_abs_err == mx
    assert m.err_rate == pytest.approx(rate, abs=1e-12)


def test_behav_matches_naive_oracle_mul4(mul4):
    cfg = AxoConfig.from_uint(0b1111100110, 10)
    m = behav_characterize(mul4, cfg, Exhaustive())
    avg, rel, mx, rate = naive_behav(mul4, cfg)
    assert m.avg_abs_err == pytest.approx(avg, abs=1e-12)
    assert m.avg_abs_rel_err == pytest.approx(rel, abs=1e-12)
    assert m.max_abs_err == mx
    assert m.err_rate == pytest.approx(rate, abs=1e-12)


def test_all_ones_behav_is_zero(adder4, mul4):
    for kind in (adder4, mul4):
        m = behav_characterize(kind, AxoConfig.all_ones(config_length(kind)), Exhaustive())
        assert (m.avg_abs_err, m.avg_abs_rel_err, m.max_abs_err, m.err_rate) == (0, 0, 0, 0)


def test_adder3_max_err_covers_hand_trace():
    kind = parse_kind("adder:u3")
    m = behav_characterize(kind, AxoConfig((1, 0, 1)), Exhaustive())
    # (a=3, b=1) -> 2 while exact is 4
    assert m.max_abs_err >= 2


def test_sampled_policy_is_seeded(adder8):
    cfg = AxoConfig.from_uint(0b10101011, 8)
    m1 = behav_characterize(adder8, cfg, Sampled(2000), seed=3)
    m2 = behav_characterize(adder8, cfg, Sampled(2000), seed=3)
    m3 = behav_characterize(adder8, cfg, Sampled(2000), seed=4)
    assert m1 == m2
    assert m1 != m3


def test_exhaustive_capacity_guard():
    kind = parse_kind("adder:u16")
    with pytest.raises(CapacityError):
        behav_characterize(kind, AxoConfig.all_ones(16), Exhaustive())
    # sampled evaluation of the same kind is fine
    m = behav_characterize(kind, AxoConfig.all_ones(16), Sampled(512), seed=0)
    assert m.max_abs_err == 0


# -- proxy PPA ---------------------------------------------------------

def test_cpd_all_ones_adder8_is_1_8(adder8):
    net = build_netlist(adder8)
    assert cpd_proxy(net, AxoConfig.all_ones(8)) == pytest.approx(1.8, abs=1e-9)


def test_cpd_all_zeros_is_zero(adder8, mul4):
    for kind in (adder8, mul4):
        net = build_netlist(kind)
        z = AxoConfig.all_zeros(config_length(kind))
        assert cpd_proxy(net, z) == 0.0


def plain_longest_path(net, weights=ProxyWeights()):
    """Static DP ignoring constant folding; valid for the all-ones config
    where no removable cell is constant."""
    arr = {0: 0.0, 1: 0.0}
    for s in net.a_signals + net.b_signals:
        arr[s] = 0.0
    for c in net.cells:
        w = weights.lut_delay if c.kind == "Lut" else weights.carry_delay
        arr[c.out] = w + max(arr[s] for s in c.inputs)
    return max(arr[s] for s in net.out_signals)


@pytest.mark.parametrize("token", ["adder:u4", "adder:u8", "mul:s4", "mul:s8"])
def test_cpd_all_ones_matches_static_dp(token):
    kind = parse_kind(token)
    net = build_netlist(kind)
    ones = AxoConfig.all_ones(config_length(kind))
    assert cpd_proxy(net, ones) == pytest.approx(plain_longest_path(net), abs=1e-12)


def test_cpd_all_ones_is_max_over_configs_adder4(adder4):
    net = build_netlist(adder4)
    top = cpd_proxy(net, AxoConfig.all_ones(4))
    for u in range(16):
        assert cpd_proxy(net, AxoConfig.from_uint(u, 4)) <= top + 1e-12


def test_ppa_identities_and_lut_util(adder8):
    net = build_netlist(adder8)
    rng = np.random.default_rng(2)
    for _ in range(8):
        cfg = AxoConfig(tuple(int(x) for x in rng.integers(0, 2, 8)))
        m = ppa_characterize(net, cfg, ActivityPolicy(256), seed=0)
        assert m.lut_util == cfg.popcount
        assert m.pdp == pytest.approx(m.power_proxy * m.cpd_proxy, rel=1e-15)
        assert m.pdplut == pytest.approx(m.power_proxy * m.cpd_proxy * m.lut_util, rel=1e-15)


def test_power_zero_for_all_zeros_adder(adder8):
    # every cell output is the forced constant, nothing toggles
    net = build_netlist(adder8)
    m = ppa_characterize(net, AxoConfig.all_zeros(8), ActivityPolicy(128), seed=0)
    assert m.power_proxy == 0.0
    assert m.lut_util == 0


# -- datasets ----------------------------------------------------------

def test_dataset_order_and_size(adder4_char):
    assert len(adder4_char) == 16
    assert [r.config_uint for r in adder4_char.records] == list(range(16))


def test_dataset_rejects_duplicates(adder4):
    cfgs = [AxoConfig.from_uint(3, 4), AxoConfig.from_uint(3, 4)]
    with pytest.raises(DuplicateConfigError):
        characterize_dataset(adder4, cfgs, Exhaustive(), ActivityPolicy(64), seed=0)


def test_dataset_rejects_empty(adder4):
    with pytest.raises(ValueError):
        characterize_dataset(adder4, [], Exhaustive(), ActivityPolicy(64), seed=0)


def test_dataset_thread_invariance(mul4):
    cfgs = sample_configs(mul4, 40, seed=9)
    one = characterize_dataset(mul4, cfgs, Sampled(512), ActivityPolicy(128), seed=7, threads=1)
    four = characterize_dataset(mul4, cfgs, Sampled(512), ActivityPolicy(128), seed=7, threads=4)
    for r1, r4 in zip(one.records, four.records):
        assert r1.behav == r4.behav
        assert r1.ppa == r4.ppa


@pytest.mark.parametrize("policy", [Exhaustive(), Sampled(300), Sampled(100, seed=5)])
def test_dataset_blocks_match_single_config_calls(mul4, monkeypatch, policy):
    # a small lane budget splits the configs over several blocks of each kind
    monkeypatch.setattr(characterize, "BLOCK_LANES", 1024)
    net = build_netlist(mul4)
    cfgs = sample_configs(mul4, 23, seed=4)
    ds = characterize_dataset(mul4, cfgs, policy, ActivityPolicy(200), seed=6)
    assert [r.config for r in ds.records] == cfgs
    for r in ds.records:
        assert r.behav == behav_characterize(mul4, r.config, policy, seed=6, netlist=net)
        assert r.ppa == ppa_characterize(net, r.config, ActivityPolicy(200), seed=6)


def test_dataset_thread_invariance_across_blocks(adder8, monkeypatch):
    monkeypatch.setattr(characterize, "BLOCK_LANES", 512)
    cfgs = sample_configs(adder8, 30, seed=2)
    runs = [characterize_dataset(adder8, cfgs, Sampled(130), ActivityPolicy(300),
                                 seed=1, threads=t).records for t in (1, 2)]
    assert runs[0] == runs[1]


def test_metric_matrix_shape(adder4_char):
    mat = adder4_char.metric_matrix(["avg_abs_rel_err", "pdplut"])
    assert mat.shape == (16, 2)
    assert np.all(mat >= 0)


# -- config sampling ---------------------------------------------------

def test_sample_configs_distinct_nonzero(mul8):
    cfgs = sample_configs(mul8, 10650, seed=1)
    uints = [c.uint for c in cfgs]
    assert len(cfgs) == 10650
    assert len(set(uints)) == 10650
    assert 0 not in uints


def test_sample_configs_deterministic(mul8):
    a = sample_configs(mul8, 100, seed=5)
    b = sample_configs(mul8, 100, seed=5)
    assert [c.uint for c in a] == [c.uint for c in b]


def test_sample_configs_capacity(adder4):
    with pytest.raises(CapacityError):
        sample_configs(adder4, 16, seed=0)  # only 15 nonzero configs exist
    assert len(sample_configs(adder4, 15, seed=0)) == 15


def test_sample_configs_wide_lengths():
    # config lengths past 62 bits cannot ride the int64 fast path
    kind = parse_kind("mul:s12")
    assert config_length(kind) == 78
    cfgs = sample_configs(kind, 64, seed=2)
    uints = {c.uint for c in cfgs}
    assert len(uints) == 64
    assert all(0 < u < (1 << 78) for u in uints)
    again = sample_configs(kind, 64, seed=2)
    assert [c.uint for c in again] == [c.uint for c in cfgs]


# -- CSV round trip ----------------------------------------------------

def test_csv_round_trip(tmp_path, adder4_char):
    path = tmp_path / "adder4.csv"
    export_csv(adder4_char, path)
    back = import_csv(path)
    assert back.kind == adder4_char.kind
    assert len(back) == len(adder4_char)
    for r0, r1 in zip(adder4_char.records, back.records):
        assert r0.config == r1.config
        assert r0.behav == r1.behav
        assert r0.ppa == r1.ppa
    assert back.meta["provenance"] == adder4_char.meta["provenance"]
    assert back.meta["seed"] == adder4_char.meta["seed"]


def test_csv_malformed_bitstring_names_row(tmp_path, adder4_char):
    path = tmp_path / "bad.csv"
    export_csv(adder4_char, path)
    lines = path.read_text().splitlines()
    lines[4] = "10x1" + lines[4][4:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=":5"):
        import_csv(path)


def test_csv_bad_header(tmp_path, adder4_char):
    path = tmp_path / "bad.csv"
    export_csv(adder4_char, path)
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace("config_bits", "config")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        import_csv(path)


def test_csv_missing_preamble_key(tmp_path, adder4_char):
    path = tmp_path / "bad.csv"
    export_csv(adder4_char, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("seed=", "sd=")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        import_csv(path)


def test_csv_uint_bits_cross_check(tmp_path, adder4_char):
    path = tmp_path / "bad.csv"
    export_csv(adder4_char, path)
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    row[1] = str(int(row[1]) + 1)
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError):
        import_csv(path)


@pytest.mark.parametrize("column,value", [(2, "nan"), (5, "inf"), (10, "-inf")])
def test_csv_rejects_non_finite_metric(tmp_path, adder4_char, column, value):
    path = tmp_path / "bad.csv"
    export_csv(adder4_char, path)
    lines = path.read_text().splitlines()
    row = lines[3].split(",")
    row[column] = value
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SchemaError, match=r"bad\.csv:4: non-finite"):
        import_csv(path)
