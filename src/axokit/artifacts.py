"""Text codec shared by every artifact the toolkit writes or reads.

Tabular artifacts are UTF-8 text: ``# k=v ...`` preamble lines, a header
line, then comma-separated rows.  Floats are written with 17 significant
digits, so every double round-trips exactly.  Config bit rows are written
most-significant bit first, one character per bit.  The column codecs
below handle a whole column per call.  Run manifests are plain ``k=v``
lines.  Every file goes out through :func:`write_lines`, which
replaces the target atomically.
"""

from __future__ import annotations

import contextlib
import os

import numpy as np

from .errors import SchemaError


def fmt(x: float) -> str:
    return "%.17g" % x


def fmt_column(values) -> list[str]:
    """``fmt`` of every value, formatting each distinct float64 bit pattern
    once (so ``-0.0`` and each NaN keep their own text)."""
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    keys, inverse = np.unique(v.view(np.uint64), return_inverse=True)
    text = [fmt(x) for x in keys.view(np.float64).tolist()]
    return [text[k] for k in inverse.tolist()]


def bitstrings(rows: np.ndarray) -> list[str]:
    """Each (L,) 0/1 row of ``rows`` as its string l_{L-1}...l_0."""
    n, width = rows.shape
    text = (rows[:, ::-1] + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    return [text[i:i + width] for i in range(0, n * width, width)]


def parse_bitstrings(strings: list[str], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of ``bitstrings``: (n, width) uint8 rows, and a mask of
    the strings that are not ``width`` characters of 0 and 1 (their rows
    are zero)."""
    sizes = np.fromiter(map(len, strings), dtype=np.intp, count=len(strings))
    # one byte per character: anything outside ASCII becomes "?"
    digits = np.frombuffer("".join(strings).encode("ascii", "replace"), dtype=np.uint8) - ord("0")
    bad = sizes != width
    bad[np.searchsorted(np.cumsum(sizes), np.flatnonzero(digits > 1), side="right")] = True
    rows = np.zeros((len(strings), width), dtype=np.uint8)
    rows[~bad] = digits[np.repeat(~bad, sizes)].reshape(-1, width)[:, ::-1]
    return rows, bad


def bitstring_problem(s: str, width: int) -> str:
    """Why ``s`` is not a ``width``-bit string of 0 and 1."""
    if len(s) != width:
        return f"bitstring {s!r} has width {len(s)}, expected {width}"
    return f"malformed bitstring {s!r}"


def preamble(meta: dict) -> str:
    """The ``# k=v k=v`` line carrying ``meta`` in insertion order."""
    return "# " + " ".join(f"{k}={v}" for k, v in meta.items())


def write_lines(path, lines) -> None:
    """Write ``lines`` to ``path`` through a temp file in the same directory
    renamed onto the target, so a killed or failed write never leaves a
    partial target; the temp file is removed on error."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_artifact(path) -> tuple[dict[str, str], list[str], int]:
    """Read a tabular artifact.

    Returns the preamble as a dict, every line of the file without its
    newline, and the index of the first line after the preamble.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    meta: dict[str, str] = {}
    i = 0
    while i < len(lines) and lines[i].startswith("#"):
        for tok in lines[i][1:].split():
            if "=" not in tok:
                raise SchemaError(f"{path}: malformed preamble token {tok!r}")
            k, v = tok.split("=", 1)
            meta[k] = v
        i += 1
    return meta, lines, i


def read_manifest(path, required=()) -> dict[str, str]:
    """Read ``k=v`` lines, skipping blank ones; a line without ``=`` or a
    missing ``required`` key raises SchemaError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    bad = [ln for ln in lines if "=" not in ln]
    if bad:
        raise SchemaError(f"{path}: expected key=value, got {bad[0]!r}")
    out = dict(ln.split("=", 1) for ln in lines)
    missing = [k + "=" for k in required if k not in out]
    if missing:
        raise SchemaError(f"{path}: missing {', '.join(missing)}")
    return out
