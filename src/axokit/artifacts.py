"""Text codec shared by every artifact the toolkit writes or reads.

Tabular artifacts are UTF-8 text: ``# k=v ...`` preamble lines, a header
line, then comma-separated rows.  Floats are written with 17 significant
digits, so every double round-trips exactly.  Run manifests are plain
``k=v`` lines.  Every file goes out through :func:`write_lines`, which
replaces the target atomically.
"""

from __future__ import annotations

import contextlib
import os

from .errors import SchemaError


def fmt(x: float) -> str:
    return "%.17g" % x


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
