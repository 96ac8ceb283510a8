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

The signal table of a chunk is allocated uninitialized: rows 0/1 and the
operand bit planes are written here, and the kernel overwrites every cell
row in place (see :mod:`axokit._simpy`).  Operands shared by every config
are packed once and broadcast into each config's words; a caller that
simulates many blocks over the same operands packs them once for all of
its calls.  Outputs are unpacked in the narrowest integer type that holds
them and widened only into the result.

The activity pass (:func:`evaluate_toggles`) simulates and counts toggles
on the packed words without unpacking any output.  It runs the chunk loop
of :func:`evaluate_configs`, with chunks overlapping by one lane so that
every transition is counted once.
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
    keep = np.array([c.bits for c in configs], dtype=bool).T
    return np.repeat(np.where(keep, _ONES, np.uint64(0)), n_words, axis=1)


def _operand_planes(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Packed bit planes (2n, rows, W) of the low n bits of ``a`` then
    ``b``: rows is 1 for shared (lanes,) operands and k for (k, lanes)."""
    n_words = (a.shape[-1] + 63) // 64
    planes = np.concatenate([_pack_planes(a, n, n_words), _pack_planes(b, n, n_words)])
    return planes.reshape(2 * n, -1, n_words)


def _simulate_chunk(net: OperatorNetlist, gate: np.ndarray,
                    a: np.ndarray, b: np.ndarray,
                    planes: np.ndarray | None = None) -> np.ndarray:
    """Run one packed block; returns the full signal table (n_signals, k*W).

    ``gate`` is the (L, k*W) block gate; ``a``/``b`` are (lanes,) operands
    shared by all k configs or (k, lanes) with one row per config.  They
    are packed here unless ``planes`` already holds their bit planes.
    """
    n = net.kind.width
    if planes is None:
        planes = _operand_planes(n, a, b)
    n_words = planes.shape[-1]
    k = gate.shape[1] // n_words
    sig = np.empty((net.n_signals, k * n_words), dtype=np.uint64)
    sig[0] = 0
    sig[1] = _ONES
    sig[2:2 + 2 * n].reshape(2 * n, k, n_words)[:] = planes
    _simpy.run_program(net.instructions, sig, gate)
    return sig


def _collect_outputs(net: OperatorNetlist, sig: np.ndarray, lanes: int) -> np.ndarray:
    """(k, lanes) operator outputs of a simulated block, in the narrowest
    integer type that holds them (signed for multipliers)."""
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
    if net.kind.family is Family.SIGNED_MULTIPLIER:
        # sign-extend the top output bit in place
        shift = 8 * acc.itemsize - n_out
        vals <<= shift
        vals = vals.view(acc.str.replace("u", "i"))
        vals >>= shift
    return vals


def _count_toggles(net: OperatorNetlist, sig: np.ndarray, lanes: int) -> np.ndarray:
    """(k,) transitions on every cell output between consecutive lanes.

    Lane i vs lane i+1 for i < lanes-1 within each config's segment.
    Only the last word of a segment holds bits that are not such
    transitions (the one across the segment boundary and the padding), so
    only that word is masked.  Primary inputs and constants are external
    activity and excluded.
    """
    n_words = (lanes + 63) // 64
    k = sig.shape[1] // n_words
    if lanes < 2:
        return np.zeros(k, dtype=np.int64)
    x = sig[2 + 2 * net.kind.width:]
    diff = np.right_shift(x, np.uint64(1), out=np.empty_like(x))
    diff[:, :-1] |= x[:, 1:] << np.uint64(63)
    diff ^= x
    diff = diff.reshape(x.shape[0], k, n_words)
    rem = (lanes - 1) % 64
    if rem:
        diff[:, :, -1] &= np.uint64((1 << rem) - 1)
    else:
        diff[:, :, -1] = 0
    return np.bitwise_count(diff).sum(axis=(0, 2), dtype=np.int64)


def _check_block(net: OperatorNetlist, configs: Sequence[AxoConfig],
                 a: np.ndarray, b: np.ndarray):
    """Checked ``(configs, a, b)`` of a block call, operands as int64."""
    configs = list(configs)
    for c in configs:
        net.check_config(c)
    a = np.ascontiguousarray(a, dtype=np.int64)
    b = np.ascontiguousarray(b, dtype=np.int64)
    if a.shape != b.shape or a.ndim not in (1, 2) or (a.ndim == 2 and a.shape[0] != len(configs)):
        raise ValueError("operands must be two 1-D arrays of one length, "
                         "or two (k, lanes) arrays with one row per config")
    return configs, a, b


def _chunks(net: OperatorNetlist, configs: list[AxoConfig], a: np.ndarray,
            b: np.ndarray, overlap: bool, planes: np.ndarray | None = None):
    """Simulate checked operands in chunks; yields ``(start, stop, sig)``.

    With ``overlap`` each chunk after the first starts on the previous
    chunk's last lane, so every transition between consecutive lanes falls
    inside exactly one chunk.  ``planes`` (shared operands only) are the
    packed ``_operand_planes`` of ``a``/``b``; chunks then start on whole
    words of them.
    """
    k = len(configs)
    n = a.shape[-1]
    step = max(2, CHUNK_LANES // max(k, 1))
    if planes is not None:
        step = max(64, step - step % 64)
    gate = None
    chunk_planes = None
    start = 0
    while start < n and k:
        stop = min(start + step, n)
        n_words = (stop - start + 63) // 64
        if gate is None or gate.shape[1] != k * n_words:
            gate = _block_gate(configs, n_words)
        if planes is not None:
            chunk_planes = planes[..., start // 64:(stop + 63) // 64]
        yield start, stop, _simulate_chunk(net, gate, a[..., start:stop],
                                           b[..., start:stop], chunk_planes)
        start = stop - 1 if overlap and stop < n else stop


def evaluate_toggles(net: OperatorNetlist, configs: Sequence[AxoConfig],
                     a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(k,) int64 toggle counts of k configs, without unpacking outputs.

    Operands are shaped as for :func:`evaluate_configs`; toggles are
    counted per config between consecutive pairs in lane order, including
    across chunk boundaries.
    """
    configs, a, b = _check_block(net, configs, a, b)
    toggles = np.zeros(len(configs), dtype=np.int64)
    for start, stop, sig in _chunks(net, configs, a, b, overlap=True):
        toggles += _count_toggles(net, sig, stop - start)
    return toggles


def evaluate_configs(net: OperatorNetlist, configs: Sequence[AxoConfig],
                     a: np.ndarray, b: np.ndarray,
                     *, _planes: np.ndarray | None = None) -> np.ndarray:
    """(k, lanes) int64 outputs of k configs of one operator, in block passes.

    ``a``/``b`` are either 1-D and shared by every config or (k, lanes)
    with one row per config.

    ``_planes`` is private to :mod:`axokit.characterize`: the
    ``_operand_planes`` of shared ``a``/``b``, packed once by a caller
    that simulates many blocks over the same operands.  Chunks then start
    on whole words of it.
    """
    configs, a, b = _check_block(net, configs, a, b)
    if _planes is not None and a.ndim != 1:
        raise ValueError("packed planes are for shared operands")
    out = np.empty((len(configs), a.shape[-1]), dtype=np.int64)
    for start, stop, sig in _chunks(net, configs, a, b, False, _planes):
        out[:, start:stop] = _collect_outputs(net, sig, stop - start)
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
    out = evaluate_configs(net, [config], a, b)[0]
    if count_toggles:
        return out, int(evaluate_toggles(net, [config], a, b)[0])
    return out
