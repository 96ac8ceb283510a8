"""Bit-parallel gate-level simulation over packed operand batches.

Operand pairs are packed 64 per machine word (one vector per lane, lane 0
in the least significant bit), every netlist signal becomes a row of words,
and the compiled program from :mod:`axokit.operators` is replayed over the
rows by :func:`axokit._simpy.run_program`.
"""

from __future__ import annotations

import numpy as np

from . import _simpy
from .operators import AxoConfig, Family, OperatorNetlist

# Lanes per chunk; bounds peak memory at n_signals * CHUNK_LANES / 8 bytes.
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


def _pack_column(bits: np.ndarray, n_words: int) -> np.ndarray:
    by = np.packbits(bits, bitorder="little")
    buf = np.zeros(n_words * 8, dtype=np.uint8)
    buf[: by.size] = by
    return buf.view("<u8")


def gate_words(config: AxoConfig) -> np.ndarray:
    """Per-config-bit broadcast words: all-ones keeps the LUT, zero removes."""
    bits = np.asarray(config.bits, dtype=np.uint64)
    return np.where(bits != 0, _ONES, np.uint64(0))


def _simulate_chunk(net: OperatorNetlist, gate: np.ndarray,
                    a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Run one packed chunk; returns the full signal table (n_signals, W)."""
    n = net.kind.width
    lanes = a.shape[0]
    n_words = (lanes + 63) // 64
    mask_n = int((1 << n) - 1)
    au = (a & mask_n).astype(np.uint64)
    bu = (b & mask_n).astype(np.uint64)
    sig = np.zeros((net.n_signals, n_words), dtype=np.uint64)
    sig[1] = _ONES
    one = np.uint64(1)
    for i in range(n):
        sh = np.uint64(i)
        sig[net.a_signals[i]] = _pack_column(((au >> sh) & one).astype(np.uint8), n_words)
        sig[net.b_signals[i]] = _pack_column(((bu >> sh) & one).astype(np.uint8), n_words)
    _simpy.run_program(net.instructions, sig, gate)
    return sig


def _collect_outputs(net: OperatorNetlist, sig: np.ndarray, lanes: int) -> np.ndarray:
    vals = np.zeros(lanes, dtype=np.int64)
    for pos, s in enumerate(net.out_signals):
        if s == 0:
            continue
        bits = np.unpackbits(sig[s].view(np.uint8), bitorder="little", count=lanes)
        vals += bits.astype(np.int64) << pos
    if net.kind.family is Family.SIGNED_MULTIPLIER:
        nbits = 2 * net.kind.width
        vals -= (vals >> (nbits - 1)) << nbits
    return vals


def _count_toggles(net: OperatorNetlist, sig: np.ndarray, lanes: int) -> int:
    """Transitions on every cell output between consecutive lanes.

    Lane i vs lane i+1 for i < lanes-1; primary inputs and constants are
    external activity and excluded.
    """
    if lanes < 2:
        return 0
    first = 2 + 2 * net.kind.width
    x = sig[first:]
    shifted = np.empty_like(x)
    shifted[:, :-1] = (x[:, :-1] >> np.uint64(1)) | (x[:, 1:] << np.uint64(63))
    shifted[:, -1] = x[:, -1] >> np.uint64(1)
    diff = (x ^ shifted) & _lanes_mask(lanes - 1, x.shape[1])
    return int(np.bitwise_count(diff).sum())


def evaluate_batch(net: OperatorNetlist, config: AxoConfig,
                   a: np.ndarray, b: np.ndarray,
                   count_toggles: bool = False):
    """Evaluate the configured operator over paired operand arrays.

    Returns the int64 output array, or ``(outputs, toggle_count)`` when
    ``count_toggles`` is set.  Toggles are counted between consecutive
    pairs in input order, including across chunk boundaries.
    """
    net.check_config(config)
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("operand arrays must be 1-D and the same length")
    gate = gate_words(config)
    n = a.shape[0]
    out = np.empty(n, dtype=np.int64)
    toggles = 0
    start = 0
    while start < n:
        stop = min(start + CHUNK_LANES, n)
        sig = _simulate_chunk(net, gate, a[start:stop], b[start:stop])
        out[start:stop] = _collect_outputs(net, sig, stop - start)
        if count_toggles:
            toggles += _count_toggles(net, sig, stop - start)
        # overlap one lane so the boundary transition is counted once
        start = stop if stop == n or not count_toggles else stop - 1
    if count_toggles:
        return out, toggles
    return out
