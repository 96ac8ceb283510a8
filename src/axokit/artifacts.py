"""Text codec shared by every artifact the toolkit writes or reads.

Tabular artifacts are UTF-8 text: ``# k=v ...`` preamble lines, a header
line, then comma-separated rows.  Floats are written with 17 significant
digits, so every double round-trips exactly.  Every file goes out through
:func:`write_lines`.
"""

from __future__ import annotations

from .errors import SchemaError


def fmt(x: float) -> str:
    return "%.17g" % x


def preamble(meta: dict) -> str:
    """The ``# k=v k=v`` line carrying ``meta`` in insertion order."""
    return "# " + " ".join(f"{k}={v}" for k, v in meta.items())


def write_lines(path, lines) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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
