"""Differential tests of the COHCFG array kernels against one-line references.

``dumps`` is compared with a writer that formats each row with
``" ".join(map(str, row))``; ``loads`` is compared with itself with the
array path switched off, so every block goes through the per-row loop.
"""

import tracemalloc

import numpy as np
import pytest

from cohcfg import iofmt
from cohcfg.cc import CoherentConfiguration
from cohcfg.errors import FormatError


def reference_dumps(cfg):
    rows = [" ".join(map(str, row)) for row in cfg.colors.tolist()]
    return "".join(line + "\n" for line in
                   [iofmt.MAGIC, f"degree {cfg.degree}", f"rank {cfg.rank}"] + rows)


def random_cfg(degree, ids, seed=0):
    rng = np.random.default_rng(seed)
    return CoherentConfiguration(rng.integers(0, ids, size=(degree, degree)))


def outcome(text):
    try:
        return iofmt.loads(text).colors.tolist()
    except FormatError as exc:
        return f"FormatError: {exc}"


def row_loop_outcome(text, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(iofmt, "_parse_block", lambda buf, degree, out: False)
        return outcome(text)


# ids on each side of 9/10, 99/100, 999/1000 and 9999/10000; rank 1
CONFIGS = ([random_cfg(n, 40, seed=n) for n in (0, 1, 2, 63, 64, 65, 129)]
           + [random_cfg(65, ids) for ids in (10, 11, 100, 101)]
           + [CoherentConfiguration(np.arange(n * n).reshape(n, n)) for n in (32, 101)]
           + [CoherentConfiguration(np.zeros((n, n), np.int64)) for n in (1, 70)])


def test_configs_cover_the_digit_boundaries():
    ranks = {cfg.rank for cfg in CONFIGS}
    assert {1, 10, 11, 100, 101, 1024, 10201} <= ranks
    assert {cfg.degree for cfg in CONFIGS} >= {0, 1, 2, 63, 64, 65, 129}


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"n{c.degree}-r{c.rank}")
def test_dumps_matches_the_reference_writer_and_loads_inverts_it(cfg, monkeypatch):
    text = iofmt.dumps(cfg)
    assert text == reference_dumps(cfg)
    assert iofmt.loads(text).colors.tolist() == cfg.colors.tolist()
    assert row_loop_outcome(text, monkeypatch) == cfg.colors.tolist()


def test_clean_blocks_take_the_array_path(monkeypatch):
    cfg = random_cfg(129, 10001)
    parsed = []
    parse_block = iofmt._parse_block
    monkeypatch.setattr(iofmt, "_parse_block",
                        lambda *args: parsed.append(parse_block(*args)) or parsed[-1])
    assert iofmt.loads(iofmt.dumps(cfg)).colors.tolist() == cfg.colors.tolist()
    assert parsed == [True, True, True]


def _first(row, f):
    head, _, rest = row.partition(" ")
    return f(head) + " " + rest


MUTATIONS = {
    "tab": lambda row: row.replace(" ", "\t", 1),
    "double space": lambda row: row.replace(" ", "  ", 1),
    "leading space": lambda row: " " + row,
    "trailing space": lambda row: row + " ",
    "plus sign": lambda row: _first(row, lambda t: "+" + t),
    "leading zeros": lambda row: _first(row, lambda t: "00" + t),
    "negative": lambda row: _first(row, lambda t: "-1"),
    "arabic-indic digit": lambda row: _first(row, lambda t: "٣"),
    "18 digits": lambda row: _first(row, lambda t: t.zfill(18)),
    "20 digits": lambda row: _first(row, lambda t: t.zfill(20)),
    "19 nines": lambda row: _first(row, lambda t: "9" * 19),
    "20 nines": lambda row: _first(row, lambda t: "9" * 20),
    "short row": lambda row: row.rsplit(" ", 1)[0],
    "short row, double space": lambda row: row.rsplit(" ", 1)[0].replace(" ", "  ", 1),
    "short row, trailing space": lambda row: row.rsplit(" ", 1)[0] + " ",
    "long row": lambda row: row + " 0",
    "empty row": lambda row: "",
}


@pytest.mark.parametrize("degree", [65, 129])
@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_mutated_row_in_the_second_block_matches_the_row_loop(degree, name, monkeypatch):
    cfg = random_cfg(degree, 300, seed=degree)
    lines = iofmt.dumps(cfg).splitlines()
    i = (iofmt.BLOCK + degree) // 2
    lines[3 + i] = MUTATIONS[name](lines[3 + i])
    text = "\n".join(lines) + "\n"
    got = outcome(text)
    assert got == row_loop_outcome(text, monkeypatch)
    if name in ("tab", "plus sign", "leading zeros", "18 digits", "20 digits"):
        assert got == cfg.colors.tolist()
    if isinstance(got, str) and name != "negative":
        assert got.startswith(f"FormatError: row {i}")


def test_an_id_moved_to_the_next_row_matches_the_row_loop(monkeypatch):
    cfg = random_cfg(129, 300)
    lines = iofmt.dumps(cfg).splitlines()
    i = 3 + iofmt.BLOCK + 5
    lines[i], moved = lines[i].rsplit(" ", 1)
    lines[i + 1] = moved + " " + lines[i + 1]
    text = "\n".join(lines) + "\n"
    assert outcome(text) == row_loop_outcome(text, monkeypatch)
    assert outcome(text) == f"FormatError: row {iofmt.BLOCK + 5} has 128 entries, expected 129"


@pytest.mark.parametrize("ending", ["crlf", "trailing content"])
def test_line_endings_and_trailing_content_match_the_row_loop(ending, monkeypatch):
    cfg = random_cfg(129, 300)
    text = iofmt.dumps(cfg)
    text = text.replace("\n", "\r\n") if ending == "crlf" else text + "0 1\n"
    got = outcome(text)
    assert got == row_loop_outcome(text, monkeypatch)
    if ending == "crlf":
        assert got == cfg.colors.tolist()
    else:
        assert got == "FormatError: unexpected content after the 129 matrix rows"


def test_short_body_fails_before_allocating_the_matrix():
    text = "COHCFG v1\ndegree 20000\nrank 1\n" + "\n" * 20000
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="^row 0 has 0 entries, expected 20000$"):
            iofmt.loads(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2 ** 20
