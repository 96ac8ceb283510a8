"""Bit-parallel gate-level simulation over packed operand batches.

Operand pairs are packed 64 per machine word (one vector per lane, lane 0
in the least significant bit), every netlist signal becomes a row of words,
and the compiled program from :mod:`axokit.operators` is replayed over the
rows by :func:`axokit._simpy.run_program`.

A block of k configs runs in one pass: each signal row is laid out as
``configs x words``, every config owning W whole words (its lanes padded
to a multiple of 64), and the gate table holds one row of per-word masks
per removable LUT, so word j of config c is gated by c's bit.  This is
parallel-pattern simulation with configurations packed beside the test
patterns (Waicukauski et al., ICCAD 1985).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import _simpy
from .operators import AxoConfig, Family, OperatorNetlist

# Lanes per pass over all configs of a call; bounds peak memory at
# n_signals * CHUNK_LANES / 8 bytes.  Longer operand rows are simulated in
# chunks of CHUNK_LANES // k lanes per config.
CHUNK_LANES = 1 << 20

_ONES = ~np.uint64(0)


def _lanes_mask(m: int, n_words: int) -> np.ndarray:
    """Word mask with the first m lane bits set."""
    mask = np.zeros(n_words, dtype=np.uint64)
    full, rem = divmod(m, 64)
    mask[:full] = _ONES
    if rem:
        mask[full] = np.uint64((1 << rem) - 1)
    return mask


def _pack_planes(vals: np.ndarray, n: int, n_words: int) -> np.ndarray:
    """Bit planes of the low n bits of ``vals`` (..., lanes) as packed
    words (n, ..., n_words), lane 0 in bit 0 of word 0."""
    mask = (1 << n) - 1
    u = (vals & mask).astype(np.min_scalar_type(mask))
    buf = np.zeros((n,) + u.shape[:-1] + (n_words * 8,), dtype=np.uint8)
    bit = np.empty_like(u)
    for i in range(n):
        np.right_shift(u, i, out=bit)
        bit &= 1
        by = np.packbits(bit.astype(np.uint8, copy=False), axis=-1, bitorder="little")
        buf[i, ..., : by.shape[-1]] = by
    return buf.view("<u8")


def gate_words(config: AxoConfig) -> np.ndarray:
    """Per-config-bit broadcast words: all-ones keeps the LUT, zero removes."""
    bits = np.asarray(config.bits, dtype=np.uint64)
    return np.where(bits != 0, _ONES, np.uint64(0))


def _block_gate(configs: Sequence[AxoConfig], n_words: int) -> np.ndarray:
    """(L, k * n_words) per-word gate masks of a block of k configs."""
    words = np.stack([gate_words(c) for c in configs], axis=1)
    return np.repeat(words, n_words, axis=1)


def _simulate_chunk(net: OperatorNetlist, gate: np.ndarray,
                    a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Run one packed block; returns the full signal table (n_signals, k*W).

    ``gate`` is the (L, k*W) block gate; ``a``/``b`` are (lanes,) operands
    shared by all k configs, packed once and tiled, or (k, lanes) with one
    row per config.
    """
    n = net.kind.width
    n_words = (a.shape[-1] + 63) // 64
    k = gate.shape[1] // n_words
    sig = np.zeros((net.n_signals, k * n_words), dtype=np.uint64)
    sig[1] = _ONES
    rows = sig.reshape(net.n_signals, k, n_words)
    for signals, vals in ((net.a_signals, a), (net.b_signals, b)):
        rows[signals] = _pack_planes(vals, n, n_words).reshape(n, -1, n_words)
    _simpy.run_program(net.instructions, sig, gate)
    return sig


def _collect_outputs(net: OperatorNetlist, sig: np.ndarray, lanes: int) -> np.ndarray:
    """(k, lanes) int64 operator outputs of a simulated block."""
    n_words = (lanes + 63) // 64
    k = sig.shape[1] // n_words
    n_out = len(net.out_signals)
    acc = np.min_scalar_type((1 << n_out) - 1)
    vals = np.zeros((k, lanes), dtype=acc)
    term = np.empty_like(vals)
    for pos, s in enumerate(net.out_signals):
        if s == 0:
            continue
        bits = np.unpackbits(sig[s].reshape(k, n_words).view(np.uint8), axis=-1,
                             count=lanes, bitorder="little")
        np.left_shift(bits, pos, out=term, dtype=acc)
        vals |= term
    vals = vals.astype(np.int64)
    if net.kind.family is Family.SIGNED_MULTIPLIER:
        nbits = 2 * net.kind.width
        vals -= (vals >> (nbits - 1)) << nbits
    return vals


def _count_toggles(net: OperatorNetlist, sig: np.ndarray, lanes: int) -> np.ndarray:
    """(k,) transitions on every cell output between consecutive lanes.

    Lane i vs lane i+1 for i < lanes-1 within each config's segment; the
    transition across a segment boundary is masked out.  Primary inputs
    and constants are external activity and excluded.
    """
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
    diff &= np.tile(_lanes_mask(lanes - 1, n_words), k)
    counts = np.bitwise_count(diff).reshape(x.shape[0], k, n_words)
    return counts.sum(axis=(0, 2), dtype=np.int64)


def evaluate_configs(net: OperatorNetlist, configs: Sequence[AxoConfig],
                     a: np.ndarray, b: np.ndarray, count_toggles: bool = False):
    """Evaluate k configs of one operator in block passes.

    ``a``/``b`` are either 1-D and shared by every config or (k, lanes)
    with one row per config.  Returns (k, lanes) int64 outputs, or
    ``(outputs, toggles)`` with (k,) int64 toggle counts when
    ``count_toggles`` is set.  Toggles are counted per config between
    consecutive pairs in lane order, including across chunk boundaries.
    """
    configs = list(configs)
    for c in configs:
        net.check_config(c)
    k = len(configs)
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim not in (1, 2) or (a.ndim == 2 and a.shape[0] != k):
        raise ValueError("operands must be two 1-D arrays of one length, "
                         "or two (k, lanes) arrays with one row per config")
    n = a.shape[-1]
    out = np.empty((k, n), dtype=np.int64)
    toggles = np.zeros(k, dtype=np.int64)
    step = max(2, CHUNK_LANES // max(k, 1))
    gate = None
    start = 0
    while start < n and k:
        stop = min(start + step, n)
        m = stop - start
        if gate is None or gate.shape[1] != k * ((m + 63) // 64):
            gate = _block_gate(configs, (m + 63) // 64)
        sig = _simulate_chunk(net, gate, a[..., start:stop], b[..., start:stop])
        out[:, start:stop] = _collect_outputs(net, sig, m)
        if count_toggles:
            toggles += _count_toggles(net, sig, m)
        # overlap one lane so the chunk boundary transition is counted once
        start = stop if stop == n or not count_toggles else stop - 1
    if count_toggles:
        return out, toggles
    return out


def evaluate_batch(net: OperatorNetlist, config: AxoConfig,
                   a: np.ndarray, b: np.ndarray,
                   count_toggles: bool = False):
    """Evaluate one configured operator over paired 1-D operand arrays.

    Returns the int64 output array, or ``(outputs, toggle_count)`` when
    ``count_toggles`` is set.  Toggles are counted between consecutive
    pairs in input order, including across chunk boundaries.
    """
    if np.ndim(a) != 1 or np.shape(a) != np.shape(b):
        raise ValueError("operand arrays must be 1-D and the same length")
    res = evaluate_configs(net, [config], a, b, count_toggles)
    if count_toggles:
        return res[0][0], int(res[1][0])
    return res[0]
