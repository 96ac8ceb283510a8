"""LUT-removal model of FPGA-style arithmetic operators.

An operator is an accurate LUT/carry-chain netlist in which a fixed set of
LUTs is marked removable.  A binary configuration selects which of those
LUTs remain: bit ``l_i = 1`` keeps LUT ``i``, ``l_i = 0`` removes it.
Removing a LUT forces its combinational output to constant 0 and forces the
carry-mux data input it drives to constant 0; everything downstream keeps
conducting the forced constants.

Two operator families are modeled:

* unsigned ripple-carry adders of width N (N removable LUTs), and
* signed Baugh-Wooley NxN multipliers, N even, whose partial-product rows
  are compressed pairwise by carry chains of N+1 removable LUTs each
  (N/2 * (N+1) removable LUTs total); the row sums and the two constant
  correction bits are accumulated by exact, non-removable adders.

Netlists are immutable after construction and safe to share across threads.
Evaluation itself lives in :mod:`axokit.simcore`; this module owns the
structure.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import numpy as np

from .errors import CapacityError, InvalidOperatorError

# Opcode values shared with the simulation kernels.
OP_XOR2 = 0  # out = s[i0] ^ s[i1]
OP_BW = 1    # out = (s[i0] & s[i1]) ^ (s[i2] & s[i3]) ^ (flags & 1)
OP_MUX = 2   # out = s[i0] ? s[i1] : data,  data = (s[i2] & s[i3]) ^ (flags & 1)
             # data is forced to 0 when the gating config bit is 0

SIG_CONST0 = 0
SIG_CONST1 = 1

# Keeps accidental 2**36 enumerations out of reach.
ENUMERATION_GUARD_BITS = 24


class Family(enum.Enum):
    """Supported operator families."""

    UNSIGNED_ADDER = "adder:u"
    SIGNED_MULTIPLIER = "mul:s"


@dataclass(frozen=True)
class OperatorKind:
    """An operator family plus its operand bit-width."""

    family: Family
    width: int

    def __post_init__(self):
        if self.width < 1:
            raise InvalidOperatorError(f"operand width must be positive, got {self.width}")
        if self.family is Family.SIGNED_MULTIPLIER and self.width % 2 != 0:
            raise InvalidOperatorError(
                f"signed multiplier width must be even (row pairing), got {self.width}"
            )

    @property
    def token(self) -> str:
        """Compact text form, e.g. ``adder:u8`` or ``mul:s4``."""
        return f"{self.family.value}{self.width}"

    def __str__(self) -> str:
        return self.token

    def operand_range(self) -> tuple[int, int]:
        """Inclusive-exclusive (lo, hi) range of valid operand values."""
        n = self.width
        if self.family is Family.UNSIGNED_ADDER:
            return 0, 1 << n
        return -(1 << (n - 1)), 1 << (n - 1)

    def output_bits(self) -> int:
        if self.family is Family.UNSIGNED_ADDER:
            return self.width + 1
        return 2 * self.width

    def exact(self, a, b):
        """Reference arithmetic for this operator (vectorizes over arrays)."""
        if self.family is Family.UNSIGNED_ADDER:
            return a + b
        return a * b


def parse_kind(token: str) -> OperatorKind:
    """Parse ``adder:uN`` / ``mul:sN`` tokens (as used by the CLI and CSVs)."""
    for family in Family:
        if token.startswith(family.value):
            tail = token[len(family.value):]
            if tail.isdigit():
                return OperatorKind(family, int(tail))
    raise InvalidOperatorError(f"unrecognized operator token {token!r}")


def config_length(kind: OperatorKind) -> int:
    """Number of removable LUTs, i.e. the configuration string length."""
    n = kind.width
    if kind.family is Family.UNSIGNED_ADDER:
        return n
    return (n // 2) * (n + 1)


@dataclass(frozen=True)
class AxoConfig:
    """Ordered tuple (l_0, ..., l_{L-1}) selecting which removable LUTs stay.

    ``l_0`` is the least-significant bit of the UINT encoding.
    """

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("config bits must be 0 or 1")

    def __len__(self) -> int:
        return len(self.bits)

    @cached_property
    def uint(self) -> int:
        return sum(b << i for i, b in enumerate(self.bits))

    @property
    def popcount(self) -> int:
        return sum(self.bits)

    @classmethod
    def from_uint(cls, u: int, length: int) -> "AxoConfig":
        if u < 0 or u >= (1 << length):
            raise ValueError(f"uint {u} out of range for {length}-bit config")
        return cls(tuple((u >> i) & 1 for i in range(length)))

    @classmethod
    def all_ones(cls, length: int) -> "AxoConfig":
        return cls((1,) * length)

    @classmethod
    def all_zeros(cls, length: int) -> "AxoConfig":
        return cls((0,) * length)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.bits, dtype=np.uint8)

    def bitstring(self) -> str:
        """MSB-first string l_{L-1}...l_0, as stored in CSV files."""
        return "".join(str(b) for b in reversed(self.bits))

    @classmethod
    def from_bitstring(cls, s: str) -> "AxoConfig":
        if not s or any(c not in "01" for c in s):
            raise ValueError(f"malformed config bitstring {s!r}")
        return cls(tuple(int(c) for c in reversed(s)))


@dataclass(frozen=True)
class NetlistCell:
    """One LUT or carry-chain element.

    ``config_index`` marks the AxoConfig bit controlling the cell: on a
    removable LUT it is the removal bit; on a CarryMux it gates the data
    input (the bypass driven by that LUT).  -1 means unaffected.
    """

    id: int
    kind: str  # "Lut" | "CarryMux" | "CarryXor"
    op: int
    inputs: tuple[int, ...]
    flags: int
    removable: bool
    config_index: int
    out: int


class OperatorNetlist:
    """Immutable gate-level netlist for one operator kind.

    Signals are integer ids: 0 is constant 0, 1 is constant 1, then the
    ``2*width`` primary input bits (a then b, LSB first), then one signal
    per cell in topological order.
    """

    def __init__(self, kind: OperatorKind):
        self.kind = kind
        self.config_len = config_length(kind)
        n = kind.width
        self.a_signals = list(range(2, 2 + n))
        self.b_signals = list(range(2 + n, 2 + 2 * n))
        self._next_signal = 2 + 2 * n
        self.cells: list[NetlistCell] = []
        self.out_signals: list[int] = []  # LSB first
        if kind.family is Family.UNSIGNED_ADDER:
            self._build_adder()
        else:
            self._build_multiplier()
        self.n_signals = self._next_signal
        self._validate()
        self._instrs = self._compile()

    # -- construction -------------------------------------------------

    def _cell(self, kind, op, inputs, flags=0, removable=False, config_index=-1) -> int:
        out = self._next_signal
        self._next_signal += 1
        for s in inputs:
            if s >= out:
                raise AssertionError("netlist must be built in topological order")
        self.cells.append(
            NetlistCell(len(self.cells), kind, op, tuple(inputs), flags, removable, config_index, out)
        )
        return out

    def _ripple_stage(self, x, y, carry, cfg=-1, data=None):
        """One carry-chain column: propagate LUT, carry mux, sum xor.

        ``data`` is the mux bypass operand as an (s0, s1, neg) AND-term;
        default is the plain first operand x.  Returns (sum, carry_out).
        """
        if data is None:
            data = (x, SIG_CONST1, 0)
        t = self._cell("Lut", OP_XOR2, (x, y), removable=cfg >= 0, config_index=cfg)
        d0, d1, dneg = data
        c_out = self._cell("CarryMux", OP_MUX, (t, carry, d0, d1), flags=dneg, config_index=cfg)
        s = self._cell("CarryXor", OP_XOR2, (t, carry))
        return s, c_out

    def _build_adder(self):
        n = self.kind.width
        carry = SIG_CONST0
        for i in range(n):
            s, carry = self._ripple_stage(self.a_signals[i], self.b_signals[i], carry, cfg=i)
            self.out_signals.append(s)
        self.out_signals.append(carry)

    def _build_multiplier(self):
        n = self.kind.width
        a, b = self.a_signals, self.b_signals

        def pp(i, j):
            # Baugh-Wooley term at weight i+j; last row/column terms are
            # complemented, the corner term is not.
            neg = (i == n - 1) != (j == n - 1)
            return (a[i], b[j], 1 if neg else 0)

        # Compress row pair (2k, 2k+1) with one carry chain of n+1 removable
        # LUTs. Column w adds pp(w, 2k) and pp(w-1, 2k+1); the mux bypass is
        # the first of the two, matching the adder's a_i convention.
        row_sums = []  # list of (base_weight, [signals LSB first])
        for k in range(n // 2):
            ja, jb = 2 * k, 2 * k + 1
            carry = SIG_CONST0
            sums = []
            for w in range(n + 1):
                cfg = k * (n + 1) + w
                xa = pp(w, ja) if w < n else (SIG_CONST0, SIG_CONST0, 0)
                xb = pp(w - 1, jb) if w >= 1 else (SIG_CONST0, SIG_CONST0, 0)
                flags = xa[2] | (xb[2] << 1)
                t = self._cell(
                    "Lut", OP_BW, (xa[0], xa[1], xb[0], xb[1]), flags=flags,
                    removable=True, config_index=cfg,
                )
                c_out = self._cell(
                    "CarryMux", OP_MUX, (t, carry, xa[0], xa[1]), flags=xa[2],
                    config_index=cfg,
                )
                sums.append(self._cell("CarryXor", OP_XOR2, (t, carry)))
                carry = c_out
            sums.append(carry)
            row_sums.append((2 * k, sums))

        # Exact, non-removable accumulation of the row sums and the two
        # Baugh-Wooley correction bits at weights n and 2n-1.
        acc = row_sums[0]
        for rs in row_sums[1:]:
            acc = self._exact_add(acc, rs)
        acc = self._exact_add(acc, (0, self._const_bits({n: 1, 2 * n - 1: 1})))
        base, bits = acc
        out = {base + i: s for i, s in enumerate(bits)}
        self.out_signals = [out.get(w, SIG_CONST0) for w in range(2 * n)]

    def _const_bits(self, ones: dict[int, int]) -> list[int]:
        top = max(ones)
        return [SIG_CONST1 if ones.get(w) else SIG_CONST0 for w in range(top + 1)]

    def _exact_add(self, va, vb):
        """Ripple-add two weighted bit vectors with non-removable cells.

        Columns below the second operand pass through untouched (the carry
        chain only starts where both vectors overlap).
        """
        (ba, sa), (bb, sb) = va, vb
        if ba > bb:
            (ba, sa), (bb, sb) = (bb, sb), (ba, sa)
        lo, hi = ba, max(ba + len(sa), bb + len(sb))
        out = list(sa[: bb - ba])

        def bit(vec_base, vec, w):
            i = w - vec_base
            return vec[i] if 0 <= i < len(vec) else SIG_CONST0

        carry = SIG_CONST0
        for w in range(bb, hi):
            s, carry = self._ripple_stage(bit(ba, sa, w), bit(bb, sb, w), carry)
            out.append(s)
        out.append(carry)
        return lo, out

    # -- invariants and views ------------------------------------------

    def _validate(self):
        idx = [c.config_index for c in self.cells if c.removable]
        if sorted(idx) != list(range(self.config_len)):
            raise AssertionError("removable cells must cover config indices exactly once")

    def _compile(self) -> np.ndarray:
        """Flatten cells into the (op, out, i0..i3, flags, cfg) kernel program."""
        prog = np.zeros((len(self.cells), 8), dtype=np.int32)
        for r, c in enumerate(self.cells):
            i = list(c.inputs) + [SIG_CONST0] * (4 - len(c.inputs))
            flags = c.flags
            if c.op == OP_BW:
                flags = (c.flags & 1) ^ ((c.flags >> 1) & 1)
            cfg = c.config_index if (c.removable or c.kind == "CarryMux") else -1
            prog[r] = (c.op, c.out, i[0], i[1], i[2], i[3], flags, cfg)
        return prog

    @property
    def instructions(self) -> np.ndarray:
        return self._instrs

    @property
    def removable_count(self) -> int:
        return self.config_len

    def check_config(self, config: AxoConfig):
        if len(config) != self.config_len:
            raise ValueError(
                f"config length {len(config)} does not match operator {self.kind} "
                f"(expected {self.config_len})"
            )

    def dump_cells(self) -> str:
        """Line-oriented debug dump: one cell per line."""
        lines = []
        for c in self.cells:
            ins = " ".join(str(s) for s in c.inputs)
            lines.append(f"{c.id} {c.kind} removable={int(c.removable)} cfg={c.config_index} in=[{ins}]")
        return "\n".join(lines)

    def fanout_cone(self, config_index: int) -> set[int]:
        """Output bit positions reachable from the LUT at ``config_index``.

        Includes the carry muxes whose bypass that LUT gates; everything
        outside the returned set is provably unaffected by flipping the bit.
        """
        tainted = set()
        for c in self.cells:
            if c.config_index == config_index:
                tainted.add(c.out)
        for c in self.cells:
            if c.out in tainted:
                continue
            if any(s in tainted for s in c.inputs):
                tainted.add(c.out)
        return {pos for pos, s in enumerate(self.out_signals) if s in tainted}


@lru_cache(maxsize=None)
def build_netlist(kind: OperatorKind) -> OperatorNetlist:
    """Build (and cache) the accurate netlist for an operator kind."""
    return OperatorNetlist(kind)


def enumerate_configs(kind: OperatorKind, include_all_zeros: bool = True) -> Iterator[AxoConfig]:
    """All configurations in ascending UINT order.

    Guarded to config lengths <= 24 bits; larger spaces must be sampled.
    """
    length = config_length(kind)
    if length > ENUMERATION_GUARD_BITS:
        raise CapacityError(
            f"refusing to enumerate 2^{length} configurations for {kind} "
            f"(guard is 2^{ENUMERATION_GUARD_BITS})"
        )
    start = 0 if include_all_zeros else 1
    for u in range(start, 1 << length):
        yield AxoConfig.from_uint(u, length)


def evaluate(netlist: OperatorNetlist, config: AxoConfig, a: int, b: int) -> int:
    """Bit-exact scalar evaluation of one operand pair.

    Pure function of its arguments; with the all-ones config the result is
    exact integer arithmetic.
    """
    from . import simcore

    netlist.check_config(config)
    lo, hi = netlist.kind.operand_range()
    for name, v in (("a", a), ("b", b)):
        if not (lo <= v < hi):
            raise ValueError(f"operand {name}={v} outside [{lo}, {hi}) for {netlist.kind}")
    out = simcore.evaluate_batch(
        netlist, config, np.asarray([a], dtype=np.int64), np.asarray([b], dtype=np.int64)
    )
    return int(out[0])
