"""Packed simulation: scalar parity, chunking, and toggle counting."""

import subprocess
import sys

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from axokit import build_netlist, evaluate, parse_kind
from axokit.characterize import (
    ActivityPolicy,
    Exhaustive,
    Sampled,
    characterize_dataset,
    ppa_characterize,
    sample_configs,
)
from axokit.operators import AxoConfig
from axokit import _simpy, simcore
from axokit.simcore import evaluate_batch, evaluate_configs, evaluate_toggles, gate_words


def test_gate_words_layout():
    g = gate_words(AxoConfig((1, 0, 1)))
    assert g.dtype == np.uint64
    assert g[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert g[1] == 0
    assert g[2] == np.uint64(0xFFFFFFFFFFFFFFFF)


def _random_pairs(kind, n, seed):
    lo, hi = kind.operand_range()
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=n), rng.integers(lo, hi, size=n)


@pytest.mark.parametrize("token", ["adder:u8", "mul:s8"])
def test_batch_matches_scalar(token):
    kind = parse_kind(token)
    net = build_netlist(kind)
    rng = np.random.default_rng(5)
    cfg = AxoConfig(tuple(int(x) for x in rng.integers(0, 2, net.removable_count)))
    a, b = _random_pairs(kind, 200, 6)
    out = evaluate_batch(net, cfg, a, b)
    for i in range(len(a)):
        assert out[i] == evaluate(net, cfg, int(a[i]), int(b[i]))


def test_fresh_process_agrees():
    # the same evaluation in a fresh interpreter must match bit for bit
    kind = parse_kind("mul:s8")
    net = build_netlist(kind)
    cfg = AxoConfig.from_uint(0x5A5A5A5A5, 36)
    a, b = _random_pairs(kind, 4096, 11)
    out, tog = evaluate_batch(net, cfg, a, b, count_toggles=True)
    script = (
        "import numpy as np\n"
        "from axokit import build_netlist, parse_kind\n"
        "from axokit.operators import AxoConfig\n"
        "from axokit.simcore import evaluate_batch\n"
        "kind = parse_kind('mul:s8')\n"
        "net = build_netlist(kind)\n"
        "cfg = AxoConfig.from_uint(0x5A5A5A5A5, 36)\n"
        "rng = np.random.default_rng(11)\n"
        "lo, hi = kind.operand_range()\n"
        "a, b = rng.integers(lo, hi, size=4096), rng.integers(lo, hi, size=4096)\n"
        "out, tog = evaluate_batch(net, cfg, a, b, count_toggles=True)\n"
        "print(int(out.sum()), int(np.bitwise_xor.reduce(out)), tog)\n"
    )
    res = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, check=True)
    got = res.stdout.split()
    assert int(got[0]) == int(out.sum())
    assert int(got[1]) == int(np.bitwise_xor.reduce(out))
    assert int(got[2]) == tog


def test_chunk_boundary_toggle_invariance(monkeypatch):
    kind = parse_kind("adder:u8")
    net = build_netlist(kind)
    cfg = AxoConfig.from_uint(0b10110101, 8)
    a, b = _random_pairs(kind, 3000, 3)
    out_big, tog_big = evaluate_batch(net, cfg, a, b, count_toggles=True)
    monkeypatch.setattr(simcore, "CHUNK_LANES", 257)
    out_small, tog_small = evaluate_batch(net, cfg, a, b, count_toggles=True)
    assert np.array_equal(out_big, out_small)
    assert tog_big == tog_small


def test_toggles_against_recurrence_oracle():
    """Independent adder recurrence: recompute every cell stream and count
    transitions; the packed counter must agree exactly."""
    kind = parse_kind("adder:u4")
    net = build_netlist(kind)
    rng = np.random.default_rng(17)
    a = rng.integers(0, 16, size=400)
    b = rng.integers(0, 16, size=400)
    for cfg_uint in (0b1111, 0b0101, 0b0000, 0b1001):
        cfg = AxoConfig.from_uint(cfg_uint, 4)
        streams = []
        for ai, bi in zip(a.tolist(), b.tolist()):
            cells = []
            c = 0
            for i in range(4):
                abit = (ai >> i) & 1
                bbit = (bi >> i) & 1
                keep = cfg.bits[i]
                p = (abit ^ bbit) if keep else 0
                data = abit if keep else 0
                nxt = c if p else data
                cells.extend([p, nxt, p ^ c])
                c = nxt
            streams.append(cells)
        arr = np.asarray(streams)
        oracle = int(np.sum(arr[1:] != arr[:-1]))
        _, tog = evaluate_batch(net, cfg, a, b, count_toggles=True)
        assert tog == oracle


def test_toggle_count_zero_for_constant_stream():
    kind = parse_kind("adder:u4")
    net = build_netlist(kind)
    a = np.full(100, 7)
    b = np.full(100, 5)
    _, tog = evaluate_batch(net, AxoConfig.all_ones(4), a, b, count_toggles=True)
    assert tog == 0


def test_operand_shape_validation():
    net = build_netlist(parse_kind("adder:u4"))
    cfg = AxoConfig.all_ones(4)
    with pytest.raises(ValueError):
        evaluate_batch(net, cfg, np.arange(4), np.arange(5))
    with pytest.raises(ValueError):
        evaluate_batch(net, cfg, np.zeros((2, 2)), np.zeros((2, 2)))


@settings(max_examples=40, deadline=None)
@given(token=st.sampled_from(["adder:u5", "mul:s4", "mul:s6"]),
       k=st.integers(1, 5), lanes=st.integers(1, 300), shared=st.booleans(),
       chunk=st.sampled_from([1 << 20, 150, 64]), seed=st.integers(0, 2**32 - 1))
def test_block_matches_per_config(token, k, lanes, shared, chunk, seed):
    """One block pass over k configs equals k single-config evaluations,
    outputs and toggle counts, with shared or per-config operand rows and
    with chunk splits inside each config's lanes."""
    kind = parse_kind(token)
    net = build_netlist(kind)
    rng = np.random.default_rng(seed)
    lo, hi = kind.operand_range()
    cfgs = [AxoConfig(tuple(int(x) for x in rng.integers(0, 2, net.removable_count)))
            for _ in range(k)]
    shape = lanes if shared else (k, lanes)
    a, b = rng.integers(lo, hi, size=shape), rng.integers(lo, hi, size=shape)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simcore, "CHUNK_LANES", chunk)
        out = evaluate_configs(net, cfgs, a, b)
        tog = evaluate_toggles(net, cfgs, a, b)
        if shared:
            # operands packed once by the caller, chunks on whole words
            planes = simcore._operand_planes(kind.width, a, b)
            assert np.array_equal(evaluate_configs(net, cfgs, a, b, _planes=planes), out)
    assert out.shape == (k, lanes) and tog.shape == (k,)
    for i, cfg in enumerate(cfgs):
        ai, bi = (a, b) if shared else (a[i], b[i])
        o, t = evaluate_batch(net, cfg, ai, bi, count_toggles=True)
        assert np.array_equal(out[i], o)
        assert tog[i] == t


def reference_count_toggles(net, sig, lanes):
    """The toggle counter as it was before it masked only the last word of
    each segment: a full lane mask, tiled over the k configs."""
    n_words = (lanes + 63) // 64
    k = sig.shape[1] // n_words
    if lanes < 2:
        return np.zeros(k, dtype=np.int64)
    first = 2 + 2 * net.kind.width
    x = sig[first:]
    diff = np.empty_like(x)
    diff[:, :-1] = (x[:, :-1] >> np.uint64(1)) | (x[:, 1:] << np.uint64(63))
    diff[:, -1] = x[:, -1] >> np.uint64(1)
    diff ^= x
    mask = np.zeros(n_words, dtype=np.uint64)
    full, rem = divmod(lanes - 1, 64)
    mask[:full] = ~np.uint64(0)
    if rem:
        mask[full] = np.uint64((1 << rem) - 1)
    diff &= np.tile(mask, k)
    counts = np.bitwise_count(diff).reshape(x.shape[0], k, n_words)
    return counts.sum(axis=(0, 2), dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(width=st.integers(1, 4), cells=st.integers(0, 6), k=st.integers(1, 9),
       lanes=st.one_of(st.just(1), st.sampled_from([64, 65, 127, 128, 129, 191, 192]),
                       st.integers(2, 300)),
       data=st.data())
def test_count_toggles_matches_reference(width, cells, k, lanes, data):
    """Masking only each segment's last word counts what the full lane
    mask counted, on arbitrary words (padding bits included)."""
    net = SimpleNamespace(kind=SimpleNamespace(width=width))
    shape = (2 + 2 * width + cells, k * ((lanes + 63) // 64))
    sig = data.draw(hnp.arrays(np.uint64, shape, elements=st.integers(0, 2**64 - 1)))
    want = reference_count_toggles(net, sig.copy(), lanes)
    got = simcore._count_toggles(net, sig, lanes)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


@pytest.mark.parametrize("policy", [Exhaustive(), Sampled(150)])
def test_characterize_records_independent_of_chunking(monkeypatch, policy):
    # 1000 lanes per pass over 20 configs: 50-lane chunks with a one-lane
    # overlap for toggles, 64-lane chunks over the shared exhaustive planes
    kind = parse_kind("mul:s4")
    cfgs = sample_configs(kind, 20, seed=8)
    whole = characterize_dataset(kind, cfgs, policy, ActivityPolicy(300), seed=2)
    monkeypatch.setattr(simcore, "CHUNK_LANES", 1000)
    chunked = characterize_dataset(kind, cfgs, policy, ActivityPolicy(300), seed=2)
    assert chunked.records == whole.records


def test_activity_pass_unpacks_no_outputs(monkeypatch):
    kind = parse_kind("mul:s4")
    net = build_netlist(kind)
    cfg = AxoConfig.from_uint(0b1011001101, net.removable_count)
    want = ppa_characterize(net, cfg, ActivityPolicy(500), seed=1)

    def refuse(*args):
        raise AssertionError("activity pass unpacked outputs")

    monkeypatch.setattr(simcore, "_collect_outputs", refuse)
    assert ppa_characterize(net, cfg, ActivityPolicy(500), seed=1) == want


def test_block_operand_shape_validation():
    net = build_netlist(parse_kind("adder:u4"))
    cfgs = [AxoConfig.all_ones(4)] * 2
    with pytest.raises(ValueError):
        evaluate_configs(net, cfgs, np.zeros((3, 8)), np.zeros((3, 8)))
    with pytest.raises(ValueError):
        evaluate_configs(net, cfgs, np.zeros(8), np.zeros((2, 8)))
    with pytest.raises(ValueError):
        evaluate_toggles(net, cfgs, np.zeros((3, 8)), np.zeros((3, 8)))
    with pytest.raises(ValueError):
        evaluate_configs(net, [AxoConfig.all_ones(5)], np.zeros(8), np.zeros(8))


def alloc_run_program(prog, sig, gate):
    """The allocate-per-op kernel that preceded the in-place one, verbatim."""
    ones = ~np.uint64(0)
    for k in range(prog.shape[0]):
        op, out, i0, i1, i2, i3, flags, cfg = prog[k]
        if op == _simpy.OP_XOR2:
            v = sig[i0] ^ sig[i1]
            if cfg >= 0:
                v = v & gate[cfg]
        elif op == _simpy.OP_BW:
            v = (sig[i0] & sig[i1]) ^ (sig[i2] & sig[i3])
            if flags & 1:
                v = v ^ ones
            if cfg >= 0:
                v = v & gate[cfg]
        else:
            d = sig[i2] & sig[i3]
            if flags & 1:
                d = d ^ ones
            if cfg >= 0:
                d = d & gate[cfg]
            s = sig[i0]
            v = (s & sig[i1]) | (~s & d)
        sig[out] = v


@settings(max_examples=60, deadline=None)
@given(token=st.sampled_from(["adder:u5", "mul:s4", "mul:s6"]),
       words=st.integers(1, 9), seed=st.integers(0, 2**32 - 1),
       classes=st.lists(st.sampled_from(["ones", "zero", "mixed"]), min_size=21, max_size=21))
def test_in_place_kernel_matches_allocating_kernel(token, words, seed, classes):
    """The in-place kernel leaves the same full signal table (every cell
    row, so toggles too) as the allocate-per-op kernel, for gate rows that
    are all-ones, all-zero or mixed, whatever the cell rows held before."""
    net = build_netlist(parse_kind(token))
    rng = np.random.default_rng(seed)
    sig = rng.integers(0, 2**64, size=(net.n_signals, words), dtype=np.uint64)
    sig[0] = 0
    sig[1] = ~np.uint64(0)
    gate = np.empty((net.removable_count, words), dtype=np.uint64)
    for row, cls in zip(gate, classes):
        if cls == "ones":
            row[:] = ~np.uint64(0)
        elif cls == "zero":
            row[:] = 0
        else:
            row[:] = rng.integers(0, 2**64, size=words, dtype=np.uint64)
    want = sig.copy()
    alloc_run_program(net.instructions, want, gate)
    _simpy.run_program(net.instructions, sig, gate)
    assert np.array_equal(sig, want)
