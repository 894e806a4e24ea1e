"""COHCFG v1: a line-oriented text format for color matrices.

    COHCFG v1
    degree <n>
    rank <r>
    <n rows of n space-separated color ids>

The writer always emits canonical ids, so write-then-read reproduces the
matrix byte for byte.

Both directions work on blocks of ``BLOCK`` matrix rows with a few numpy
steps per block.  The reader's array path parses only the grammar the
writer emits: ASCII digits, ids of 1 to 18 digits, one space between
ids and ``degree`` ids per row.  Any other block (tabs, repeated spaces,
signs, non-ASCII digits, longer ids, short or long rows) goes through
the per-row loop, which parses the lenient whitespace-separated grammar
and writes every ``FormatError`` message about a row.
"""

import numpy as np

from .cc import CoherentConfiguration
from .errors import FormatError

MAGIC = "COHCFG v1"
BLOCK = 64
_DIGIT, _SEP = 1, 2
_KIND = np.zeros(256, np.uint8)
_KIND[ord("0"):ord("9") + 1] = _DIGIT
_KIND[[ord(" "), ord("\n")]] = _SEP


def dumps(cfg):
    head = f"{MAGIC}\ndegree {cfg.degree}\nrank {cfg.rank}\n"
    # row i of the table: the digits of id i, a space, zero padding
    width = len(str(max(cfg.rank - 1, 0)))
    digits = np.arange(cfg.rank).astype(f"S{width}").view(np.uint8)
    table = np.zeros((cfg.rank, width + 1), np.uint8)
    table[:, :width] = digits.reshape(cfg.rank, width)
    lengths = np.count_nonzero(table, axis=1)
    table[np.arange(cfg.rank), lengths] = ord(" ")
    chunks = [head.encode()]
    for lo in range(0, cfg.degree, BLOCK):
        rows = cfg.colors[lo:lo + BLOCK]
        cells = table[rows]
        cells[np.arange(len(rows)), -1, lengths[rows[:, -1]]] = ord("\n")
        chunks.append(cells[cells != 0].tobytes())
    return b"".join(chunks).decode("ascii")


def loads(text):
    lines = text.splitlines()
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
    body = lines[3:3 + degree]
    # each valid row has at least 2 * degree - 1 characters, so a shorter
    # body has a short row: the row loop raises before the matrix exists
    if sum(map(len, body)) + degree - 1 < 2 * degree * degree - 1:
        _parse_rows(body, 0, degree)
    colors = np.empty((degree, degree), np.int64)
    for lo in range(0, degree, BLOCK):
        hi = min(lo + BLOCK, degree)
        buf = np.frombuffer(("\n".join(body[lo:hi]) + "\n").encode(), np.uint8)
        if not _parse_block(buf, degree, colors[lo:hi].reshape(-1)):
            colors[lo:hi] = _parse_rows(body, lo, hi)
    if any(ln.strip() for ln in lines[3 + degree:]):
        raise FormatError(f"unexpected content after the {degree} matrix rows")
    if degree and (colors.min() < 0 or colors.max() >= rank):
        raise FormatError("color id out of declared rank range")
    if rank > colors.size or not np.bincount(colors.ravel(), minlength=rank).all():
        raise FormatError("declared rank does not match the distinct ids used")
    cfg = CoherentConfiguration(colors)
    return cfg


def _parse_block(buf, degree, out):
    """Decode the newline-terminated rows in ``buf`` (uint8) into ``out``
    if they are in the grammar ``dumps`` writes; else return False and
    leave ``out`` alone."""
    kind = _KIND.take(buf)
    if not kind.all():
        return False
    seps = np.flatnonzero(kind == _SEP).astype(np.int32)
    # every separator follows a digit (a separator at 0 wraps to the final
    # newline), and the degree-th separator of each row ends it
    if (len(seps) != len(out) or (kind[seps - 1] != _DIGIT).any()
            or (buf[seps[degree - 1::degree]] != ord("\n")).any()):
        return False
    lengths = np.diff(seps, prepend=np.int32(-1)) - 1
    width = int(lengths.max())
    if width > 18:
        return False
    # Horner over the digit positions of ids right-aligned to width
    out[:] = 0
    for k in range(width):
        digit = buf[seps - width + k] - ord("0")
        out *= 10
        out += np.where(lengths >= width - k, digit, 0)
    return True


def _parse_rows(body, lo, hi):
    """Rows lo..hi-1 of the body in the lenient grammar; raises the row's
    FormatError on the first bad row."""
    degree = len(body)
    rows = []
    for i in range(lo, hi):
        parts = body[i].split()
        if len(parts) != degree:
            raise FormatError(f"row {i} has {len(parts)} entries, expected {degree}")
        try:
            rows.append(np.array(parts, dtype=np.int64))
        except (ValueError, OverflowError) as exc:
            raise FormatError(f"row {i}: {exc}") from exc
    return np.array(rows, dtype=np.int64).reshape(hi - lo, degree)


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
