"""Numpy kernel of the packed gate-level simulation.

Replays a compiled netlist program for :mod:`axokit.simcore`.  Signals are
rows of 64-lane words, one input vector per lane.
"""

from __future__ import annotations

import numpy as np

OP_XOR2 = 0
OP_BW = 1
OP_MUX = 2


def run_program(prog: np.ndarray, sig: np.ndarray, gate: np.ndarray) -> None:
    """Execute a compiled netlist program over packed signal words.

    prog: (C, 8) int32 rows [op, out, i0, i1, i2, i3, flags, cfg]
    sig:  (n_signals, W) uint64, rows 0/1 and the input rows prefilled;
          cell output rows are written in place
    gate: (L,) uint64, all-ones where the config keeps the LUT, 0 where
          it is removed
    """
    ones = ~np.uint64(0)
    for k in range(prog.shape[0]):
        op, out, i0, i1, i2, i3, flags, cfg = prog[k]
        if op == OP_XOR2:
            v = sig[i0] ^ sig[i1]
            if cfg >= 0:
                v = v & gate[cfg]
        elif op == OP_BW:
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
