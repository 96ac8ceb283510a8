"""Numpy kernel of the packed gate-level simulation.

Replays a compiled netlist program for :mod:`axokit.simcore`.  Signals are
rows of 64-lane words, one input vector per lane; a row holds a block of
configs side by side (``configs x words``).

The kernel works in place: every cell's result is written straight into
its own signal row with ``out=``, through one scratch row per call, and no
per-cell temporary is allocated.  This relies on the netlist being in
topological order, so a cell's output row never aliases any of its input
rows.

Each gate row is classified once per call.  An all-ones row (every config
of the block keeps the LUT) needs no masking, an all-zero row (every
config removes it) forces the cell to a constant, and only a mixed row
pays for the AND with the per-word masks.  A block of one config, as in
exhaustive characterization, has only the first two classes.
"""

from __future__ import annotations

import numpy as np

OP_XOR2 = 0
OP_BW = 1
OP_MUX = 2

# Gate-row classes.
_MIXED = 0
_KEEP = 1     # all-ones: every config keeps the LUT
_REMOVE = 2   # all-zero: every config removes the LUT


def run_program(prog: np.ndarray, sig: np.ndarray, gate: np.ndarray) -> None:
    """Execute a compiled netlist program over packed signal words.

    prog: (C, 8) int32 rows [op, out, i0, i1, i2, i3, flags, cfg] in
          topological order: ``out`` is above every input of its row
    sig:  (n_signals, W) uint64, rows 0/1 and the input rows prefilled;
          every cell output row is overwritten in place, so its prior
          content does not matter
    gate: (L, W) uint64 per-word masks, all-ones in the words of configs
          that keep the LUT, 0 where it is removed; ``v & gate[cfg]``
          gates every config's words by its own bit

    The carry mux ``s ? c : d`` is computed as ``d ^ (s & (c ^ d))``,
    bit-exact for ``(s & c) | (~s & d)``.
    """
    rows = list(sig)
    keep = (gate == ~np.uint64(0)).all(axis=1)
    remove = (gate == 0).all(axis=1)
    classes = np.where(keep, _KEEP, np.where(remove, _REMOVE, _MIXED)).tolist()
    t = np.empty(sig.shape[1], dtype=sig.dtype)
    band, bxor, binv = np.bitwise_and, np.bitwise_xor, np.invert
    for op, out, i0, i1, i2, i3, flags, cfg in prog.tolist():
        o = rows[out]
        cls = classes[cfg] if cfg >= 0 else _KEEP
        if op == OP_MUX:
            s = rows[i0]
            if cls == _REMOVE:
                # data forced to 0: s ? c : 0
                band(s, rows[i1], out=o)
                continue
            band(rows[i2], rows[i3], out=t)
            if flags & 1:
                binv(t, out=t)
            if cls == _MIXED:
                band(t, gate[cfg], out=t)
            bxor(rows[i1], t, out=o)
            band(o, s, out=o)
            bxor(o, t, out=o)
        elif cls == _REMOVE:
            o.fill(0)
        else:
            if op == OP_XOR2:
                bxor(rows[i0], rows[i1], out=o)
            else:
                band(rows[i0], rows[i1], out=o)
                band(rows[i2], rows[i3], out=t)
                bxor(o, t, out=o)
                if flags & 1:
                    binv(o, out=o)
            if cls == _MIXED:
                band(o, gate[cfg], out=o)
