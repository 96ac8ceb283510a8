"""Netlist construction, config encoding, and gate-level evaluation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from axokit import (
    Family,
    OperatorKind,
    build_netlist,
    enumerate_configs,
    evaluate,
    parse_kind,
)
from axokit.errors import CapacityError, InvalidOperatorError
from axokit.operators import AxoConfig, config_length
from axokit.simcore import evaluate_batch


# -- kinds and config lengths ----------------------------------------

def test_config_lengths():
    assert config_length(OperatorKind(Family.UNSIGNED_ADDER, 8)) == 8
    assert config_length(OperatorKind(Family.SIGNED_MULTIPLIER, 4)) == 10
    assert config_length(OperatorKind(Family.SIGNED_MULTIPLIER, 8)) == 36


def test_odd_multiplier_width_rejected():
    with pytest.raises(InvalidOperatorError):
        OperatorKind(Family.SIGNED_MULTIPLIER, 5)


def test_parse_kind_round_trip():
    for token in ("adder:u4", "adder:u12", "mul:s4", "mul:s8"):
        assert parse_kind(token).token == token
    with pytest.raises(InvalidOperatorError):
        parse_kind("divider:u4")
    with pytest.raises(InvalidOperatorError):
        parse_kind("adder:u0")


def test_operand_ranges():
    assert OperatorKind(Family.UNSIGNED_ADDER, 4).operand_range() == (0, 16)
    assert OperatorKind(Family.SIGNED_MULTIPLIER, 4).operand_range() == (-8, 8)


# -- config encoding --------------------------------------------------

def test_config_uint_examples():
    assert AxoConfig.from_uint(5, 4).bits == (1, 0, 1, 0)
    assert AxoConfig((1, 1, 1)).uint == 7


def test_config_round_trip_l4():
    for u in range(16):
        assert AxoConfig.from_uint(u, 4).uint == u


def test_config_uint_range_errors():
    with pytest.raises(ValueError):
        AxoConfig.from_uint(16, 4)
    with pytest.raises(ValueError):
        AxoConfig.from_uint(-1, 4)


def test_bitstring_round_trip():
    c = AxoConfig((1, 0, 1, 0))
    # MSB-first string: l_3 l_2 l_1 l_0
    assert c.bitstring() == "0101"
    assert AxoConfig.from_bitstring("0101") == c
    with pytest.raises(ValueError):
        AxoConfig.from_bitstring("01x1")
    with pytest.raises(ValueError):
        AxoConfig.from_bitstring("")


@given(st.integers(min_value=1, max_value=20), st.data())
def test_config_round_trip_property(length, data):
    u = data.draw(st.integers(min_value=0, max_value=(1 << length) - 1))
    assert AxoConfig.from_uint(u, length).uint == u


# -- netlist shape -----------------------------------------------------

def test_removable_counts():
    for token, expect in (("adder:u3", 3), ("mul:s4", 10), ("mul:s8", 36)):
        net = build_netlist(parse_kind(token))
        assert net.removable_count == expect
        removable = [c for c in net.cells if c.removable]
        assert len(removable) == expect
        assert sorted(c.config_index for c in removable) == list(range(expect))


def test_dump_cells_is_line_oriented():
    net = build_netlist(parse_kind("adder:u3"))
    lines = net.dump_cells().splitlines()
    assert len(lines) == len(net.cells)
    assert any("removable=1" in ln for ln in lines)


# -- evaluation --------------------------------------------------------

def test_adder3_accurate_example():
    net = build_netlist(parse_kind("adder:u3"))
    assert evaluate(net, AxoConfig((1, 1, 1)), 3, 5) == 8


def test_adder3_hand_trace():
    # p_0=0, c_1=1, sum_0=0; LUT1 removed so sum_1=c_1=1, c_2=0; sum_2=0
    net = build_netlist(parse_kind("adder:u3"))
    assert evaluate(net, AxoConfig((1, 0, 1)), 3, 1) == 2


def test_multiplier_accurate_example():
    net = build_netlist(parse_kind("mul:s4"))
    assert evaluate(net, AxoConfig.all_ones(10), -8, 7) == -56


def test_all_ones_exact_adder4_exhaustive():
    kind = parse_kind("adder:u4")
    net = build_netlist(kind)
    ones = AxoConfig.all_ones(4)
    for a in range(16):
        for b in range(16):
            assert evaluate(net, ones, a, b) == a + b


def test_all_ones_exact_mul4_exhaustive():
    kind = parse_kind("mul:s4")
    net = build_netlist(kind)
    a, b = np.meshgrid(np.arange(-8, 8), np.arange(-8, 8))
    a, b = a.ravel(), b.ravel()
    out = evaluate_batch(net, AxoConfig.all_ones(10), a, b)
    assert np.array_equal(out, a * b)


def test_all_zeros_adder_is_constant_zero():
    net = build_netlist(parse_kind("adder:u4"))
    zeros = AxoConfig.all_zeros(4)
    for a, b in ((0, 0), (15, 15), (7, 9), (1, 2)):
        assert evaluate(net, zeros, a, b) == 0


def test_all_zeros_multiplier_keeps_correction_constants():
    # removing every LUT leaves only the Baugh-Wooley correction bits,
    # 2^N + 2^(2N-1), read back as a two's-complement constant
    for n in (4, 8):
        kind = OperatorKind(Family.SIGNED_MULTIPLIER, n)
        net = build_netlist(kind)
        zeros = AxoConfig.all_zeros(config_length(kind))
        expect = (1 << n) + (1 << (2 * n - 1)) - (1 << (2 * n))
        lo, hi = kind.operand_range()
        for a, b in ((lo, hi - 1), (0, 0), (3, -2)):
            assert evaluate(net, zeros, a, b) == expect


def test_evaluate_rejects_out_of_range_operands():
    net = build_netlist(parse_kind("adder:u4"))
    ones = AxoConfig.all_ones(4)
    with pytest.raises(ValueError):
        evaluate(net, ones, 16, 0)
    with pytest.raises(ValueError):
        evaluate(net, ones, 0, -1)
    mnet = build_netlist(parse_kind("mul:s4"))
    with pytest.raises(ValueError):
        evaluate(mnet, AxoConfig.all_ones(10), 8, 0)


def test_evaluate_rejects_wrong_config_length():
    net = build_netlist(parse_kind("adder:u4"))
    with pytest.raises(ValueError):
        evaluate(net, AxoConfig((1, 1, 1)), 1, 1)


def test_evaluate_is_deterministic():
    net = build_netlist(parse_kind("mul:s4"))
    cfg = AxoConfig.from_uint(0b1010110101, 10)
    first = [evaluate(net, cfg, a, b) for a, b in ((3, 4), (-8, 7), (-1, -1))]
    again = [evaluate(net, cfg, a, b) for a, b in ((3, 4), (-8, 7), (-1, -1))]
    assert first == again


# -- enumeration -------------------------------------------------------

def test_enumerate_counts_and_order():
    kind = parse_kind("adder:u4")
    configs = list(enumerate_configs(kind))
    assert len(configs) == 16
    assert [c.uint for c in configs] == list(range(16))

    mconfigs = list(enumerate_configs(parse_kind("mul:s4"), include_all_zeros=False))
    assert len(mconfigs) == 1023
    assert mconfigs[0].uint == 1

    assert sum(1 for _ in enumerate_configs(parse_kind("adder:u12"))) == 4096


def test_enumerate_guard():
    with pytest.raises(CapacityError):
        list(enumerate_configs(parse_kind("mul:s8")))


# -- fanout cones ------------------------------------------------------

def _bit_mask(positions, width):
    m = 0
    for p in range(width):
        if p not in positions:
            m |= 1 << p
    return m


@pytest.mark.parametrize("token", ["adder:u4", "mul:s4"])
def test_flip_only_disturbs_fanout_cone(token, rng):
    kind = parse_kind(token)
    net = build_netlist(kind)
    L = net.removable_count
    width = kind.output_bits()
    lo, hi = kind.operand_range()
    a = rng.integers(lo, hi, size=512)
    b = rng.integers(lo, hi, size=512)
    wrap = 1 << width
    for j in range(L):
        cone = net.fanout_cone(j)
        outside = _bit_mask(cone, width)
        base = rng.integers(0, 2, size=L)
        base[j] = 0
        flipped = base.copy()
        flipped[j] = 1
        o0 = evaluate_batch(net, AxoConfig(tuple(int(x) for x in base)), a, b)
        o1 = evaluate_batch(net, AxoConfig(tuple(int(x) for x in flipped)), a, b)
        diff = (o0 % wrap) ^ (o1 % wrap)
        assert not np.any(diff & outside), f"bit {j} leaked outside its cone"
