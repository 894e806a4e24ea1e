"""COHCFG v1: a line-oriented text format for color matrices.

    COHCFG v1
    degree <n>
    rank <r>
    <n rows of n space-separated color ids>

The writer always emits canonical ids, so write-then-read reproduces the
matrix byte for byte.
"""

import numpy as np

from .cc import CoherentConfiguration
from .errors import FormatError

MAGIC = "COHCFG v1"


def dumps(cfg):
    lines = [MAGIC, f"degree {cfg.degree}", f"rank {cfg.rank}"]
    for row in cfg.colors:
        lines.append(" ".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"


def loads(text):
    lines = [ln for ln in text.splitlines()]
    if not lines or lines[0].strip() != MAGIC:
        raise FormatError(f"missing {MAGIC!r} header")
    try:
        degree = int(_field(lines, 1, "degree"))
        rank = int(_field(lines, 2, "rank"))
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad header: {exc}") from exc
    if degree < 0 or rank < 0:
        raise FormatError("degree and rank must be nonnegative")
    if len(lines) < 3 + degree:
        raise FormatError(f"expected {degree} matrix rows, got {len(lines) - 3}")
    rows = []
    for i in range(degree):
        parts = lines[3 + i].split()
        if len(parts) != degree:
            raise FormatError(f"row {i} has {len(parts)} entries, expected {degree}")
        try:
            rows.append(np.array(parts, dtype=np.int64))
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"row {i}: {exc}") from exc
    if any(ln.strip() for ln in lines[3 + degree:]):
        raise FormatError(f"unexpected content after the {degree} matrix rows")
    colors = np.array(rows, dtype=np.int64).reshape(degree, degree)
    if degree and (colors.min() < 0 or colors.max() >= rank):
        raise FormatError("color id out of declared rank range")
    if rank > colors.size or not np.bincount(colors.ravel(), minlength=rank).all():
        raise FormatError("declared rank does not match the distinct ids used")
    cfg = CoherentConfiguration(colors)
    return cfg


def _field(lines, idx, name):
    parts = lines[idx].split()
    if len(parts) != 2 or parts[0] != name:
        raise FormatError(f"expected '{name} <value>' on line {idx + 1}")
    return parts[1]


def write_file(cfg, path):
    with open(path, "w") as fh:
        fh.write(dumps(cfg))


def read_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                          f"{exc.start})") from exc
    return loads(text)
