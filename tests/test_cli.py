import numpy as np
import pytest

from cohcfg import errors, products, wl
from cohcfg.cc import CoherentConfiguration
from cohcfg.cli import main
from cohcfg.errors import FormatError
from cohcfg.iofmt import dumps, loads, read_file, write_file


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_roundtrip_is_byte_exact(tmp_path, hollmann8):
    cfg, _ = hollmann8
    path = tmp_path / "h8.cohcfg"
    write_file(cfg, path)
    text = path.read_text()
    again = loads(text)
    assert dumps(again) == text
    assert np.array_equal(again.colors, cfg.colors)


def test_loads_rejects_malformed():
    with pytest.raises(FormatError):
        loads("nonsense")
    with pytest.raises(FormatError):
        loads("COHCFG v1\ndegree 2\nrank 9\n0 1\n1 0\n")
    with pytest.raises(FormatError):
        loads("COHCFG v1\ndegree 2\nrank 2\n0 1\n1\n")
    with pytest.raises(FormatError):
        loads("COHCFG v1\ndegree two\nrank 2\n")
    # content after the matrix rows; trailing blank lines are fine
    assert loads("COHCFG v1\ndegree 2\nrank 2\n0 1\n1 0\n\n \n").rank == 2
    with pytest.raises(FormatError):
        loads("COHCFG v1\ndegree 2\nrank 2\n0 1\n1 0\n0 1\n")
    with pytest.raises(FormatError):
        loads("COHCFG v1\ndegree 2\nrank 2\n0 1\n1 0\n\nrank 3\n")
    with pytest.raises(FormatError):
        loads("COHCFG v1\ndegree 0\nrank 0\n0\n")
    # no cells, so no ids: the declared rank must be 0
    with pytest.raises(FormatError, match="declared rank"):
        loads("COHCFG v1\ndegree 0\nrank 5\n")
    # an id below the declared rank is unused; a rank beyond the cell count
    with pytest.raises(FormatError, match="declared rank"):
        loads("COHCFG v1\ndegree 2\nrank 3\n0 2\n2 0\n")
    with pytest.raises(FormatError, match="declared rank"):
        loads("COHCFG v1\ndegree 1\nrank 1000000000000\n0\n")
    # an id beyond 64 bits
    with pytest.raises(FormatError, match="row 0"):
        loads("COHCFG v1\ndegree 1\nrank 1\n99999999999999999999\n")


def test_trailing_content_exits_2(tmp_path, capsys, hollmann8):
    path = tmp_path / "extra.cohcfg"
    path.write_text(dumps(hollmann8[0]) + "0 1 2\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert "after the 28 matrix rows" in err


def test_build_and_analyze(tmp_path, capsys):
    out = tmp_path / "h8.cohcfg"
    code, text, _ = run(capsys, "build", "--family", "hollmann-large",
                        "--q", "8", "-o", str(out))
    assert code == 0
    assert "degree 28" in text and "rank 4" in text and "valency 9" in text
    code, text, _ = run(capsys, "analyze", str(out), "--validate=full",
                        "--pseudocyclic", "--indistinguishing")
    assert code == 0
    assert "valid true" in text
    assert "pseudocyclic true" in text
    assert "valency 9" in text
    assert "c 8" in text


def test_build_passman_families(tmp_path, capsys):
    out = tmp_path / "p5.cohcfg"
    code, text, _ = run(capsys, "build", "--family", "passman", "--q", "5",
                        "-o", str(out))
    assert code == 0 and "degree 25" in text and "rank 4" in text
    code, text, _ = run(capsys, "build", "--family", "passman-frobenius",
                        "--q", "5", "-o", str(tmp_path / "f5.cohcfg"))
    assert code == 0 and "valency 4" in text
    code, text, _ = run(capsys, "build", "--family", "hollmann-small",
                        "--q", "8", "-o", str(tmp_path / "s8.cohcfg"))
    assert code == 0 and "rank 2" in text


def test_build_bad_parameters(capsys):
    code, _, err = run(capsys, "build", "--family", "hollmann-large", "--q", "10")
    assert code == 2
    code, _, err = run(capsys, "build", "--family", "unknown", "--q", "8")
    assert code == 2


def test_analyze_corrupted_file(tmp_path, capsys, hollmann8):
    cfg, _ = hollmann8
    path = tmp_path / "h8.cohcfg"
    write_file(cfg, path)
    lines = path.read_text().splitlines()
    # swap one symmetric pair of cells into a wrong class: the rainbow
    # axioms still hold, so the coherence check must name a triple
    M = cfg.colors.copy()
    a, b = 1, int(np.flatnonzero(M[1] == M[1, 0])[0])
    other = next(c for c in range(3, cfg.degree)
                 if M[1, c] not in (0, M[1, b]))
    M[1, b], M[b, 1] = M[1, other], M[1, other]
    bad = "\n".join(lines[:3] + [" ".join(str(int(x)) for x in row)
                                 for row in M]) + "\n"
    badpath = tmp_path / "bad.cohcfg"
    badpath.write_text(bad)
    code, text, _ = run(capsys, "analyze", str(badpath), "--validate=full")
    assert code == 1
    assert "valid false" in text and "witness" in text


def test_analyze_parse_failure(tmp_path, capsys):
    path = tmp_path / "garbage.cohcfg"
    path.write_text("garbage\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2


def test_extend_fibers_line(tmp_path, capsys, hollmann8):
    cfg, _ = hollmann8
    path = tmp_path / "h8.cohcfg"
    write_file(cfg, path)
    out = tmp_path / "h8a.cohcfg"
    code, text, _ = run(capsys, "extend", str(path), "--points", "0",
                        "-o", str(out))
    assert code == 0
    assert "fibers 1 9 9 9" in text
    ext = read_file(out)
    assert sorted(len(f) for f in ext.fibers()) == [1, 9, 9, 9]
    code, _, _ = run(capsys, "extend", str(path), "--points", "0,zap")
    assert code == 2


def test_verify_exit_codes(capsys):
    code, text, _ = run(capsys, "verify", "--claim", "310520d",
                        "--params", "q=5")
    assert code == 0
    assert text.startswith("CLAIM 310520d q=5 PASS")
    code, text, _ = run(capsys, "verify", "--claim", "4151533a",
                        "--params", "d=3")
    assert code == 1
    assert "FAIL" in text
    code, _, err = run(capsys, "verify", "--claim", "bogus")
    assert code == 2
    code, _, err = run(capsys, "verify", "--claim", "310520d",
                       "--params", "broken")
    assert code == 2
    # parameters that do not bind to the claim, or repeat a key
    for params in ("q=abc", "q=3.0", "q=True", "foo=3", "q=3,foo=3", "q=3,q=5"):
        code, text, err = run(capsys, "verify", "--claim", "300520a",
                              "--params", params)
        assert code == 2, params
        assert text == "" and err.startswith("error: "), params
    code, text, _ = run(capsys, "verify", "--claim", "411958b",
                        "--params", "family=small,trials=5")
    assert code == 0
    assert text.startswith("CLAIM 411958b family=small,seed=0,trials=5 PASS")
    # an empty corpus or sample proves nothing; a seed must be nonnegative
    for claim_id, params in (("201444a", "count=-5"), ("201444a", "count=0"),
                             ("411958b", "trials=0"), ("411958b", "trials=-1"),
                             ("201444a", "seed=-1,count=1"), ("411958b", "seed=-3")):
        code, text, err = run(capsys, "verify", "--claim", claim_id,
                              "--params", params)
        assert code == 2, params
        assert text == "" and err.startswith("error: "), params


def test_global_seed_must_be_nonnegative(tmp_path, capsys, hollmann16):
    # above 100 points the tensor check samples with the global seed
    path = tmp_path / "h16.cohcfg"
    write_file(hollmann16[0], path)
    code, text, _ = run(capsys, "--seed", "5", "analyze", str(path), "--tensor")
    assert code == 0 and "tensor-row-sums true" in text
    for seed in ("-1", "x"):
        code, text, err = run(capsys, "--seed", seed, "analyze", str(path),
                              "--tensor")
        assert code == 2, seed
        assert text == "" and "--seed" in err, seed


def test_degree_zero_with_nonzero_rank_exits_2(tmp_path, capsys):
    path = tmp_path / "empty.cohcfg"
    path.write_text("COHCFG v1\ndegree 0\nrank 5\n")
    code, text, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert text == "" and "declared rank" in err


def test_degree_zero_tensor(tmp_path, capsys):
    path = tmp_path / "empty.cohcfg"
    path.write_text("COHCFG v1\ndegree 0\nrank 0\n")
    code, text, _ = run(capsys, "analyze", str(path), "--tensor")
    assert code == 0
    assert "tensor-row-sums true" in text


def test_aut_subcommand(tmp_path, capsys, hollmann8):
    cfg, _ = hollmann8
    path = tmp_path / "h8.cohcfg"
    write_file(cfg, path)
    code, text, _ = run(capsys, "aut", str(path))
    assert code == 0
    assert "order 504" in text


def test_basenum_subcommand(tmp_path, capsys, hollmann8):
    cfg, _ = hollmann8
    path = tmp_path / "h8.cohcfg"
    write_file(cfg, path)
    code, text, _ = run(capsys, "basenum", str(path), "--mode", "exact")
    assert code == 0
    assert text.strip() == "3"


def test_basenum_guard_still_prints_greedy(tmp_path, capsys, monkeypatch):
    from cohcfg.schemes import passman_scheme

    cfg, _, _ = passman_scheme(17)
    path = tmp_path / "p17.cohcfg"
    write_file(cfg, path)
    # the greedy extensions on 289 points fit this budget; the exact
    # mode's doubled search on 578 points does not
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 2 * 289 ** 2 * wl._CELL_BYTES)
    code, text, err = run(capsys, "basenum", str(path), "--mode", "exact")
    assert code == 3
    assert text.strip().isdigit()
    assert "resource guard" in err and "578 points" in err


def test_extend_guard_writes_no_file(tmp_path, capsys, monkeypatch, hollmann8):
    cfg, _ = hollmann8
    path = tmp_path / "h8.cohcfg"
    out = tmp_path / "h8a.cohcfg"
    write_file(cfg, path)
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 28 ** 2 * wl._CELL_BYTES - 1)
    code, text, err = run(capsys, "extend", str(path), "--points", "0",
                          "-o", str(out))
    assert code == 3
    assert text == ""
    assert "resource guard" in err
    assert not out.exists()


def test_analyze_predicate_failure_exits_nonzero(tmp_path, capsys, hollmann8):
    cfg, _ = hollmann8
    path = tmp_path / "h8.cohcfg"
    write_file(cfg, path)
    # the scheme is not partly regular, so requesting that predicate fails
    code, text, _ = run(capsys, "analyze", str(path), "--partly-regular")
    assert code == 1
    assert "partly-regular false" in text


def test_full_validation_names_a_violated_triple(tmp_path, capsys, monkeypatch, hollmann8):
    # two colors of hollmann_large(8) fused: rank 3 on 28 points, so the
    # product route rejects and the sort kernel names the triple; exit
    # code and stdout as the sort kernel alone gave them
    cfg, _ = hollmann8
    path = tmp_path / "fused.cohcfg"
    write_file(CoherentConfiguration(np.array([0, 1, 1, 2])[cfg.colors]), path)
    real, verdicts = products.certificate, []
    monkeypatch.setattr(products, "certificate",
                        lambda *args: verdicts.append(real(*args)) or verdicts[-1])
    code, text, _ = run(capsys, "analyze", str(path), "--validate=full")
    assert verdicts == [False]
    assert code == 1
    assert text == "degree 28\nrank 3\nvalid false\nwitness ('coherent', (1, 1, 2))\n"


def test_missing_file(capsys):
    code, _, err = run(capsys, "analyze", "/no/such/file.cohcfg")
    assert code == 2


def test_directory_argument_exits_2(tmp_path, capsys):
    code, _, err = run(capsys, "analyze", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "binary.cohcfg"
    path.write_bytes(b"COHCFG v1\ndegree 1\nrank 1\n\xff\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 2
    assert err.startswith("error: ") and "UTF-8" in err
    with pytest.raises(FormatError):
        read_file(path)


def test_seed_flag_accepted(tmp_path, capsys, hollmann8):
    cfg, _ = hollmann8
    path = tmp_path / "h8.cohcfg"
    write_file(cfg, path)
    code, text, _ = run(capsys, "--seed", "7", "analyze", str(path), "--tensor")
    assert code == 0
    assert "tensor-row-sums true" in text
