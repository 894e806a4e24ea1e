import tracemalloc

import numpy as np
import pytest

from cohcfg import analysis, cc, passman_scheme, products, wl
from cohcfg.cc import CoherentConfiguration
from cohcfg.errors import IntegrityError, ResourceLimitError, UsageError
from cohcfg.perm import PermGroup
from cohcfg.wl import (coherence_violations, coherent_closure, extend_points,
                       stabilize, two_extension)

from test_cc import (brute_force_triple_counts, cycle_partition, thin_scheme,
                     trivial_scheme)


def dihedral(n):
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return PermGroup(n, [rot, ref])


def refines(fine, coarse):
    """every class of `fine` lies inside one class of `coarse`"""
    pairs = set(zip(fine.colors.ravel().tolist(), coarse.colors.ravel().tolist()))
    return len(pairs) == len({f for f, _ in pairs})


def test_closure_of_coherent_input_is_identity(hollmann8):
    cfg, _ = hollmann8
    assert coherent_closure(cfg.colors).same_partition(cfg)
    penta = CoherentConfiguration(cycle_partition(5))
    assert coherent_closure(penta.colors).same_partition(penta)


def test_closure_of_pentagon_equals_dihedral_orbitals():
    closed = coherent_closure(cycle_partition(5))
    assert closed.rank == 3
    assert closed.same_partition(dihedral(5).orbitals())


def test_closure_of_hexagon():
    raw = CoherentConfiguration(cycle_partition(6))
    assert not raw.validate("full").passed
    assert coherence_violations(raw.colors)
    closed = coherent_closure(cycle_partition(6))
    assert closed.rank == 4
    assert closed.same_partition(dihedral(6).orbitals())
    assert closed.validate("full").passed


def test_closure_of_trivial_partition():
    for n in (2, 5, 9):
        M = np.ones((n, n), dtype=int)
        closed = coherent_closure(M)
        assert closed.is_trivial_scheme()


def test_closure_idempotent():
    first = coherent_closure(cycle_partition(6))
    again = coherent_closure(first.colors)
    assert again.same_partition(first)


def test_closure_normalizes_transpose_and_diagonal():
    # one-directional cycle arcs: the class is not transpose closed as given
    n = 7
    M = np.full((n, n), 2)
    np.fill_diagonal(M, 0)
    for i in range(n):
        M[i, (i + 1) % n] = 1
    closed = coherent_closure(M)
    assert closed.validate("full").passed
    assert closed.same_partition(PermGroup(n, [tuple((i + 1) % n for i in range(n))]).orbitals())


def test_closure_monotone_under_merging(hollmann8, passman_schemes):
    for cfg in (hollmann8[0], passman_schemes[3][0]):
        merged = cfg.colors.copy()
        merged[merged == 2] = 1        # merge two same-fiber classes
        closed = coherent_closure(merged)
        assert refines(cfg, closed)


def test_extend_discrete_unchanged():
    disc = PermGroup(4, []).orbitals()
    assert extend_points(disc, [2]).same_partition(disc)


def test_extend_guards(hollmann8):
    cfg, _ = hollmann8
    with pytest.raises(UsageError):
        extend_points(cfg, [0, 0])
    with pytest.raises(UsageError):
        extend_points(cfg, [99])
    # int() made [0.7] the extension at point 0 and accepted "1"
    for points in ([0.7], ["1"], [True], [np.float64(1)]):
        with pytest.raises(UsageError, match="integers"):
            extend_points(cfg, points)
    assert np.array_equal(extend_points(cfg, [np.int64(1)]).colors,
                          extend_points(cfg, [1]).colors)


def test_extend_hollmann8_fibers(hollmann8):
    cfg, _ = hollmann8
    xa = extend_points(cfg, [0])
    assert sorted(len(f) for f in xa.fibers()) == [1, 9, 9, 9]
    assert xa.validate("full").passed
    assert refines(xa, cfg)


def test_extension_order_independence(hollmann8, passman_schemes):
    rng = np.random.default_rng(7)
    for cfg in (hollmann8[0], passman_schemes[3][0]):
        for _ in range(3):
            pts = [int(p) for p in
                   rng.choice(cfg.degree, size=int(rng.integers(2, 4)),
                              replace=False)]
            joint = extend_points(cfg, pts)
            stepwise = extend_points(extend_points(cfg, pts[:1]), pts[1:])
            assert joint.same_partition(stepwise)


def test_point_stabilizer_generators_fix_extension(hollmann8):
    cfg, G = hollmann8
    xa = extend_points(cfg, [0])
    stab = G.point_stabilizer(0)
    M = xa.colors
    for g in stab.generators:
        f = np.asarray(g)
        assert np.array_equal(M[np.ix_(f, f)], M)


def test_matched_singleton_propagation(hollmann8):
    # extending by a point matched to beta splits exactly the same cells
    cfg, _ = hollmann8
    xa = extend_points(cfg, [0])
    delta_idx = next(i for i, f in enumerate(xa.fibers()) if len(f) > 1)
    other_idx = next(i for i, f in enumerate(xa.fibers())
                     if len(f) > 1 and i != delta_idx)
    m = xa.matchings_between(delta_idx, other_idx)[0]
    beta = int(xa.fibers()[delta_idx][0])
    # partner of beta under the matching
    row_cells = np.flatnonzero(xa.colors[beta] == m)
    gamma = int(row_cells[0])
    left = extend_points(xa, [beta])
    right = extend_points(xa, [gamma])
    assert left.same_partition(right)


def test_passman_special_pair_extension_partly_regular(passman_schemes):
    cfg, _, _ = passman_schemes[5]
    t = int(cfg.colors[0, 6])
    a, b = cfg.first_pair(t)
    ext = extend_points(cfg, [a, b])
    assert ext.is_partly_regular()[0]


def test_two_extension_degree_one():
    cfg = CoherentConfiguration(np.zeros((1, 1), dtype=int))
    assert two_extension(cfg).degree == 1


def test_two_extension_trivial_scheme_on_three_points():
    te = two_extension(trivial_scheme(3))
    g1, g2 = (1, 0, 2), (1, 2, 0)

    def coord_square(g):
        return tuple(g[i // 3] * 3 + g[i % 3] for i in range(9))

    oracle = PermGroup(9, [coord_square(g1), coord_square(g2)]).orbitals()
    assert te.degree == 9
    assert te.same_partition(oracle)


def test_two_extension_thin_cyclic_four():
    te = two_extension(thin_scheme(4))
    c4 = tuple((i + 1) % 4 for i in range(4))
    diag = PermGroup(16, [tuple(c4[i // 4] * 4 + c4[i % 4] for i in range(16))])
    assert te.same_partition(diag.orbitals())
    off = [i for i in range(16) if i // 4 != i % 4]
    assert te.restriction(off).is_semiregular()


def traced_peak(fn, *args):
    """(result, peak bytes that tracemalloc saw while fn ran)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_two_extension_guard():
    # 3600 pair points, 13M cells: refused before the initial coloring
    # of the pairs is built
    triv = trivial_scheme(60)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="stabilize on 3600 points"):
            two_extension(triv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_cell_bytes_bound_the_stabilize_peak(hollmann32):
    # the per-cell constant of the memory estimate against a measurement:
    # the one-point extension of the 496-point scheme holds about 32 bytes
    # per cell at its peak, its normalized matrix and a hash round's 24
    cfg, _ = hollmann32
    M = cfg.colors.copy()
    M[0, 0] = cfg.rank
    _, peak = traced_peak(stabilize, M)
    assert peak <= M.size * wl._CELL_BYTES


@pytest.fixture(scope="module")
def extend496(hollmann32, small32):
    """The extensions of the extend-496 benchmark: a one-point extension
    of the 496-point large scheme (rank 3856) and a two-point extension of
    the 496-point small scheme (rank 123136, half the cell count)."""
    large, small = hollmann32[0], small32[0]
    t = next(s for s in range(small.rank) if not small.is_reflexive(s))
    return [(large, [0]), (small, list(small.first_pair(t)))]


def test_extend_points_holds_at_most_45_bytes_per_cell(extend496):
    # the input copy, the normalized matrix and the largest phase
    for cfg, points in extend496:
        ext, peak = traced_peak(extend_points, cfg, points)
        assert peak <= 45 * ext.colors.size


def test_extend_points_frees_its_input_copy(extend496):
    # the recolored copy of the input lives only in stabilize's frame,
    # which drops it after normalizing: 32.0 and 34.2 bytes per cell on
    # the two extensions, where holding it to the end took 40.0 and 42.2
    for cfg, points in extend496:
        ext, peak = traced_peak(extend_points, cfg, points)
        assert peak <= 37 * ext.colors.size


def test_normalize_holds_at_most_32_bytes_per_cell_on_search_nodes(extend496):
    # the two extensions with two more diagonal cells recolored, as at a
    # node of the automorphism search: many colors, codes past 16 bits
    for cfg, points in extend496:
        M = extend_points(cfg, points).colors.astype(np.int64)
        M[0, 0], M[1, 1] = M.max() + 1, M.max() + 2
        _, peak = traced_peak(wl._normalize, M)
        assert peak <= 32 * M.size


CELL_PHASES = [(wl, "_normalize"), (wl, "_hash_round"), (wl, "_is_coherent"),
               (cc, "canonicalize_colors")]


def test_each_phase_holds_at_most_32_bytes_per_cell(monkeypatch, extend496):
    held = []

    def measured(fn):
        def run(colors, *args):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = fn(colors, *args)
            peak = tracemalloc.get_traced_memory()[1] - start
            held.append((fn.__name__, peak / np.asarray(colors).size))
            return result
        return run

    for module, name in CELL_PHASES:
        monkeypatch.setattr(module, name, measured(getattr(module, name)))
    tracemalloc.start()
    try:
        for cfg, points in extend496:
            extend_points(cfg, points)
    finally:
        tracemalloc.stop()
    assert {name for name, _ in held} == {name for _, name in CELL_PHASES}
    assert max(b for _, b in held) <= 32, held


def test_product_route_holds_no_more_than_the_sorted_codes(monkeypatch, hollmann32,
                                                           small32):
    # the packed matrix w[M] and row blocks, 12.2 bytes per cell on both
    # 496-point schemes, against the sorted codes' 14.5
    for cfg, _ in (hollmann32, small32):
        M = cfg.colors
        assert route_verdict(M) is True      # the route decides
        routed, peak = traced_peak(wl._is_coherent, M)
        with monkeypatch.context() as patch:        # the sorted codes alone
            patch.setattr(products, "certificate", lambda *args: None)
            coherent, sorted_peak = traced_peak(wl._is_coherent, M)
        assert routed and coherent
        assert peak <= sorted_peak and peak <= 32 * M.size, (peak, sorted_peak)


def test_two_extension_holds_at_most_50_bytes_per_pair_cell():
    ext, peak = traced_peak(two_extension, passman_scheme(5)[0])
    assert ext.degree == 625
    assert peak <= 50 * ext.colors.size


def test_stabilize_is_deterministic(hollmann8):
    cfg, _ = hollmann8
    M = cfg.colors.copy()
    M[0, 0] = cfg.rank
    a = stabilize(M)
    b = stabilize(M)
    assert np.array_equal(a, b)


# Reference 2-WL: the exact round loop `stabilize` used before hashing,
# frozen here as the oracle for raw ids.  Each round keys every cell by
# (old color, sorted composition codes) and numbers new keys by first
# appearance in row-major order; the loop stops at the first round that
# splits no class and returns the matrix from before that round.

def reference_stabilize(colors):
    c = np.asarray(colors, dtype=np.int64)
    n = c.shape[0]
    r = int(c.max()) + 1 if c.size else 1
    code = (c * r + c.T) * 2 + np.eye(n, dtype=np.int64)
    M = np.unique(code, return_inverse=True)[1].reshape(n, n)
    if n == 0:
        return M
    r = int(M.max()) + 1
    while r < n * n:
        new = reference_round(M)
        if int(new.max()) + 1 == r:
            break
        M, r = new, int(new.max()) + 1
    return M


def reference_round(M):
    """One exact round on ids 0..r-1, numbered by first appearance."""
    n, r = M.shape[0], int(M.max()) + 1
    new = np.empty((n, n), dtype=np.int64)
    ids = {}
    for a in range(n):
        codes = M[a, None, :] * r + M.T
        codes.sort(axis=1)
        for b in range(n):
            key = (int(M[a, b]), codes[b].tobytes())
            new[a, b] = ids.setdefault(key, len(ids))
    return new


def first_appearance(M):
    _, first, inv = np.unique(M.ravel(), return_index=True, return_inverse=True)
    rank_of = np.empty(first.size, dtype=np.int64)
    rank_of[np.argsort(first)] = np.arange(first.size)
    return rank_of[inv].reshape(M.shape)


def with_fixed_points(cfg, points):
    M = cfg.colors.copy()
    for i, p in enumerate(points):
        M[p, p] = cfg.rank + i
    return M


def cayley_graph(connection):
    """colors diagonal 0, non-edge 1, edge 2 of a Cayley graph on Z4 x Z4"""
    pts = [(i, j) for i in range(4) for j in range(4)]
    M = np.ones((16, 16), dtype=np.int64)
    np.fill_diagonal(M, 0)
    for x, (a, b) in enumerate(pts):
        for y, (c, d) in enumerate(pts):
            if ((c - a) % 4, (d - b) % 4) in connection:
                M[x, y] = 2
    return M


SHRIKHANDE = cayley_graph({(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)})
ROOK_4X4 = cayley_graph({(i, 0) for i in (1, 2, 3)} | {(0, i) for i in (1, 2, 3)})


def record_stabilize(monkeypatch, module):
    calls = []

    def recorder(colors, **kwargs):
        out = stabilize(colors, **kwargs)
        calls.append((np.array(colors), out))
        return out

    monkeypatch.setattr(module, "stabilize", recorder)
    return calls


def test_raw_ids_match_reference_on_point_extensions(hollmann8, hollmann16,
                                                     passman_schemes):
    cfgs = [hollmann8[0], hollmann16[0], passman_schemes[9][0],
            passman_schemes[13][0]]
    for cfg in cfgs:
        for points in ([0], [1, cfg.degree - 1]):
            M = with_fixed_points(cfg, points)
            assert np.array_equal(stabilize(M), reference_stabilize(M))


def test_raw_ids_match_reference_on_two_extension(monkeypatch, passman_schemes):
    calls = record_stabilize(monkeypatch, wl)
    two_extension(passman_schemes[3][0])
    ((init, out),) = calls
    assert init.shape == (81, 81)
    assert np.array_equal(out, reference_stabilize(init))


def test_raw_ids_match_reference_on_doubled_search(monkeypatch, hollmann8,
                                                   passman_schemes):
    calls = record_stabilize(monkeypatch, analysis)
    for cfg in (hollmann8[0], passman_schemes[5][0]):
        search = analysis._DoubledSearch(cfg)
        v = search.candidates(search.root, 0)[-1]
        search._individualize(search.root, 0, v)
    assert len(calls) == 4
    for init, out in calls:
        assert np.array_equal(out, reference_stabilize(init))


def test_raw_ids_match_reference_on_wl_hard_inputs():
    two_triangles = np.full((6, 6), 2)
    for tri in ((0, 1, 2), (3, 4, 5)):
        for i in tri:
            for j in tri:
                two_triangles[i, j] = 1
    np.fill_diagonal(two_triangles, 0)
    for M in (SHRIKHANDE, ROOK_4X4, cycle_partition(6), two_triangles):
        fixed = M.copy()
        fixed[0, 0] = 3
        for X in (M, fixed):
            assert np.array_equal(stabilize(X), reference_stabilize(X))
    # 2-WL does not tell the two strongly regular graphs apart
    shrikhande, rook = coherent_closure(SHRIKHANDE), coherent_closure(ROOK_4X4)
    assert shrikhande.rank == rook.rank == 3
    assert np.array_equal(shrikhande.tensor().values, rook.tensor().values)


def test_stable_input_keeps_normalize_ids():
    M = SHRIKHANDE
    out = stabilize(M)
    ids = wl._normalize(M)
    assert np.array_equal(out, ids)
    assert np.array_equal(out, reference_stabilize(M))
    # the normalize ids are not first-appearance ids, so the check has teeth
    assert not np.array_equal(out, first_appearance(out))


def test_rejected_certificate_redraws_hashes(monkeypatch, hollmann8):
    real_round, real_certificate = wl._hash_round, wl._is_coherent
    rounds, verdicts = [], []

    def no_split_first(M, r, rng, *route):
        rounds.append(r)
        if len(rounds) == 1:
            return M, r
        return real_round(M, r, rng, *route)

    def certificate(M):
        verdicts.append(real_certificate(M))
        return verdicts[-1]

    monkeypatch.setattr(wl, "_hash_round", no_split_first)
    monkeypatch.setattr(wl, "_is_coherent", certificate)
    M = with_fixed_points(hollmann8[0], [0])
    assert np.array_equal(stabilize(M), reference_stabilize(M))
    assert verdicts[0] is False and verdicts[-1] is True
    assert len(rounds) > 2


def naive_is_coherent(M):
    """transpose colors well defined and equal composition multisets per color"""
    n = len(M)
    transpose, signature = {}, {}
    for a in range(n):
        for b in range(n):
            t = int(M[a, b])
            if transpose.setdefault(t, int(M[b, a])) != M[b, a]:
                return False
            pairs = sorted((int(M[a, g]), int(M[g, b])) for g in range(n))
            if signature.setdefault(t, pairs) != pairs:
                return False
    return True


def transposes_defined(M):
    return all(len(set(M.T[M == t].tolist())) == 1 for t in np.unique(M))


def with_fibers(T, fiber, rng):
    """T with each cell's color split by its fiber pair, the diagonal colored
    by fiber alone, and the color ids shuffled"""
    k = int(fiber.max()) + 1
    X = (T + 1) * k * k + fiber[:, None] * k + fiber[None, :]
    np.fill_diagonal(X, fiber)
    ids = np.unique(X, return_inverse=True)[1].reshape(X.shape)
    return rng.permutation(int(ids.max()) + 1)[ids]


def kernel_corpus(seed, count=60):
    """random color matrices, with and without a separated diagonal and
    several fibers, and their closures"""
    rng = np.random.default_rng(seed)
    tau = np.array([0, 1, 3, 2, 4])         # colors 2 and 3 are transposes
    for _ in range(count):
        n = int(rng.integers(1, 7))
        M = rng.integers(0, int(rng.integers(1, 5)), size=(n, n))
        T = np.triu(rng.integers(2, 5, size=(n, n)), 1)
        T = T + tau[T].T * (T.T > 0) + np.diag(rng.integers(0, 2, size=n))
        F = with_fibers(T, rng.integers(0, 3, size=n), rng)
        yield from (M, T, stabilize(T), np.minimum(stabilize(T), 2), F, stabilize(F))


@pytest.mark.parametrize("batch_bytes", [1, 200, wl._BATCH_BYTES])
def test_coherence_kernel(monkeypatch, batch_bytes):
    # 1 byte gives one cell per batch: every comparison crosses a batch
    monkeypatch.setattr(wl, "_BATCH_BYTES", batch_bytes)
    assert not wl._is_coherent(cycle_partition(6))
    assert wl._is_coherent(stabilize(cycle_partition(6)))
    assert wl._is_coherent(coherent_closure(cycle_partition(6)).colors)
    # one symmetric color joining two fibers: only its transposed cell differs
    assert not wl._is_coherent(np.array([[0, 2], [2, 1]]))
    decoded_across_fibers = 0
    for X in kernel_corpus(11):
        coherent = naive_is_coherent(X)
        assert wl._is_coherent(X) == coherent
        if not transposes_defined(X):
            continue
        # the reporter and the tensor re-verification use the same kernel
        bad = coherence_violations(X)
        assert (bad == []) == coherent
        for r, s, t in bad:
            assert len(brute_force_triple_counts(X, r, s, t)) > 1
        fibers = len(set(np.diagonal(X).tolist()))
        decoded_across_fibers += len(bad) * (fibers > 1)
        cfg = CoherentConfiguration(X)
        if coherent:
            cfg.tensor()
            continue
        with pytest.raises(IntegrityError) as err:
            cfg.tensor()
        assert len(brute_force_triple_counts(cfg.colors, *err.value.triple)) > 1
    assert decoded_across_fibers > 100


@pytest.mark.parametrize("limits, dtype", [(None, np.uint16),
                                           ((0, 1 << 31), np.int32),
                                           ((0, 0), np.int64)])
def test_code_dtypes(monkeypatch, limits, dtype):
    if limits:
        monkeypatch.setattr(wl, "_UINT16_CODES", limits[0])
        monkeypatch.setattr(wl, "_INT32_CODES", limits[1])
    real, dtypes = wl._code_tables, set()

    def spy(M):
        tables = real(M)
        dtypes.update({tables[0].dtype, tables[1].dtype})
        return tables

    monkeypatch.setattr(wl, "_code_tables", spy)
    for X in kernel_corpus(5, count=20):
        assert wl._is_coherent(X) == naive_is_coherent(X)
    assert dtypes == {np.dtype(dtype)}


def test_invalid_fibers_give_global_codes():
    # all cells one color: coherent, and the diagonal is not separated
    zero = np.zeros((3, 3), dtype=np.int64)
    assert wl._is_coherent(zero) and naive_is_coherent(zero)
    assert coherence_violations(zero) == []
    # fibers {0, 1} and {2}; color 2 lies in {0, 1}^2 and in {0, 1} x {2}
    spans = np.array([[0, 2, 2], [2, 0, 3], [2, 3, 1]])
    assert not wl._is_coherent(spans) and not naive_is_coherent(spans)
    bad = coherence_violations(spans)
    assert bad and all(len(brute_force_triple_counts(spans, *v)) > 1 for v in bad)
    # the diagonal color 0 also lies off the diagonal
    off_diag = np.array([[0, 0, 2], [0, 0, 2], [3, 3, 1]])
    for M in (zero, spans, off_diag):
        r = int(M.max()) + 1
        R, C, decode = wl._code_tables(M)
        assert np.array_equal(R, M * r) and np.array_equal(C, M.T)
        assert decode(0, r * r - 1) == (r - 1, r - 1)


def test_extension_codes_fit_16_bits(hollmann16):
    M = extend_points(hollmann16[0], [0]).colors
    R, C, _ = wl._code_tables(M)
    assert R.dtype == C.dtype == np.uint16
    assert (int(M.max()) + 1) ** 2 > 1 << 16     # global codes would not


class ConstantWeights:
    def integers(self, low, high, size):
        return np.ones(size, dtype=np.int64)


class ParityWeights:
    def integers(self, low, high, size):
        return np.arange(np.prod(size)).reshape(size) % 2 + 1


def test_hash_round_never_merges_classes(hollmann8):
    # constant weights hash every cell alike; the old colors must survive
    M = wl._normalize(with_fixed_points(hollmann8[0], [0]))
    r = int(M.max()) + 1
    out, rank = wl._hash_round(M, r, ConstantWeights())
    assert rank == r and np.array_equal(out, M)
    # weights 1 and 2 collide across classes, but the sorted round that
    # splits some class still keeps every new class inside an old one
    out, rank = wl._hash_round(M, r, ParityWeights())
    assert rank > r
    assert refines(CoherentConfiguration(out), CoherentConfiguration(M))


def test_hash_round_returns_a_stable_matrix_unchanged(hollmann8):
    M = wl._normalize(hollmann8[0].colors)
    r = int(M.max()) + 1
    out, rank = wl._hash_round(M, r, np.random.default_rng(1))
    assert out is M and rank == r


def count_hash_rounds(monkeypatch):
    real, rounds = wl._hash_round, []

    def counting(M, r, rng, *route):
        out = real(M, r, rng, *route)
        rounds.append(out[0] is M)
        return out

    monkeypatch.setattr(wl, "_hash_round", counting)
    return rounds


def test_point_split_saves_two_rounds_per_recolored_call(monkeypatch, hollmann8,
                                                         hollmann16):
    # hash rounds alone take four rounds here; the point split does the
    # first two, and the last, which splits nothing, skips the sort
    rounds = count_hash_rounds(monkeypatch)
    extend_points(hollmann8[0], [0])
    assert (len(rounds), sum(rounds)) == (4 - 2, 1)
    # ten stabilizations that hash rounds alone close in 30 rounds; the
    # root has one fiber, so only the nine individualizations save two,
    # and every call ends in one round that skips the sort
    rounds.clear()
    analysis.automorphism_group(hollmann16[0])
    assert (len(rounds), sum(rounds)) == (30 - 2 * 9, 10)


def test_closure_of_large_and_negative_ids():
    # ids far above n^2 gave c * r + c' out of int64 range
    big = np.array([[2 ** 33, 2 ** 32, 0], [0, 2 ** 33, 2 ** 32],
                    [2 ** 32, 0, 2 ** 33]])
    small = np.array([[2, 1, 0], [0, 2, 1], [1, 0, 2]])
    assert coherent_closure(big).same_partition(thin_scheme(3))
    assert np.array_equal(stabilize(big), stabilize(small))
    # negative ids gave r = max + 1 too small, so the codes aliased
    neg = np.array([[-2, -1, -2], [-1, 0, 0], [-1, -2, -2]])
    assert coherent_closure(neg).rank == coherent_closure(neg + 2).rank == 9
    assert np.array_equal(stabilize(neg), stabilize(neg + 2))
    assert np.array_equal(stabilize(neg + 2), reference_stabilize(neg + 2))
    extreme = np.array([[-2 ** 62, 2 ** 62], [2 ** 62, 2 ** 62 - 1]])
    assert np.array_equal(stabilize(extreme), reference_stabilize([[0, 2], [2, 1]]))


def test_closure_refuses_non_integer_ids():
    # a cast to int64 merged the colors 1.2 and 1.7 into one
    for bad in ([[0, 1.2, 2.0], [1.7, 0, 1.2], [2.0, 1.7, 0]],
                [[True, False], [False, True]]):
        with pytest.raises(UsageError, match="integers"):
            coherent_closure(bad)
    with pytest.raises(UsageError, match="square"):
        coherent_closure([0, 1])


def test_fiber_tagged_codes_do_not_overflow():
    # all ids distinct: r = n^2 and k = n fibers, so the tagged code
    # c * r + c' times k^2 would pass 2^63 from n = 1291 on
    n = 1291
    assert 2 * n ** 6 > 1 << 63
    M = np.arange(n * n).reshape(n, n)
    assert np.array_equal(stabilize(M), M)


def test_point_tagged_codes_do_not_overflow():
    # one fiber and distinct off-diagonal ids below n^2 = r: the n point
    # labels widen the code c * r + c' n^2 times, past 2^63 from n = 1291 on
    n = 1300
    M = np.arange(n * n).reshape(n, n)
    np.fill_diagonal(M, 0)
    r = n * n
    assert 2 * r * r * n * n > 1 << 63
    assert wl._point_labels(M, r)[1] == n
    assert np.array_equal(stabilize(M), np.arange(n * n).reshape(n, n))


def test_coherence_violations_of_sparse_ids():
    # the kernel's tables are sized by the largest id: ids up to 2^40 are
    # compacted first, and the triples come back in the caller's ids
    X = np.array([[0, 1, 1], [1, 0, 2], [1, 2, 0]])
    bad = coherence_violations(X)
    assert bad
    for scale in (1 << 22, 1 << 40):
        got, peak = traced_peak(coherence_violations, X * scale)
        assert got == [tuple(c * scale for c in v) for v in bad]
        assert peak < 1 << 20
    got, peak = traced_peak(coherence_violations, cycle_partition(5) << 40)
    assert got == [] and peak < 1 << 20


def test_coherence_violations_refuses_bad_matrices():
    with pytest.raises(UsageError, match="square"):
        coherence_violations(np.zeros((2, 3), dtype=int))
    with pytest.raises(UsageError, match="square"):
        coherence_violations(np.zeros(4, dtype=int))
    with pytest.raises(UsageError, match="nonnegative"):
        coherence_violations(np.array([[0, -1], [-1, 0]]))


def test_hash_products_are_exact():
    for n in (1, 2, 28, 240, 496, 900, 10 ** 6):
        p = wl._hash_modulus(n)
        assert p >= 2 and n * p * p < 2 ** 53
    n = 900   # the pair points of a 30-point configuration
    p = wl._hash_modulus(n)
    W = np.full((n, n), float(p - 1))
    assert ((W @ W) == n * (p - 1) ** 2).all()


# The group route: hash rounds on one row per orbit of a group that
# preserves the input, stopped once the rank reaches the orbit count.

def passman_pairs(passman_schemes):
    """The 27 inputs of claim 310520d: passman(q), q = 3..13, with the first
    pair (0, b) of each irreflexive color split off, and G_{0,b}."""
    for q, (cfg, G, _) in sorted(passman_schemes.items()):
        G0 = G.point_stabilizer(0)
        for t in range(cfg.rank):
            if not cfg.is_reflexive(t):
                a, b = cfg.first_pair(t)
                assert a == 0
                yield with_fixed_points(cfg, [a, b]), G0.stabilizer_prefix((b,))


def without_certificate(monkeypatch):
    calls = []
    real = wl._is_coherent

    def recording(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(wl, "_is_coherent", recording)
    return calls


def test_group_route_keeps_raw_ids_on_the_passman_pairs(monkeypatch, passman_schemes):
    certificates = without_certificate(monkeypatch)
    inputs = list(passman_pairs(passman_schemes))
    assert len(inputs) == 27
    for M, H in inputs:
        today = stabilize(M)
        del certificates[:]
        assert np.array_equal(stabilize(M, group=H), today)
        # the orbit count is the closure's rank: the route stops early
        assert not certificates
        reps, _, count = wl._group_route(wl._normalize(M), H)
        assert count == int(today.max()) + 1 and len(reps) < len(M)


def test_group_route_keeps_raw_ids_on_large_extensions(monkeypatch, hollmann8,
                                                       hollmann16):
    certificates = without_certificate(monkeypatch)
    for cfg, G in (hollmann8, hollmann16):
        G0 = G.point_stabilizer(0)
        today = extend_points(cfg, [0])
        del certificates[:]
        assert np.array_equal(extend_points(cfg, [0], group=G0).colors, today.colors)
        assert not certificates


def test_trivial_group_hashes_every_row(hollmann8):
    M = with_fixed_points(hollmann8[0], [0])
    N = wl._normalize(M)
    n = len(M)
    for group in (PermGroup(n, []), PermGroup(n, [tuple(range(n))])):
        reps, layers, count = wl._group_route(N, group)
        assert np.array_equal(reps, np.arange(n)) and layers == [] and count == n * n
        assert np.array_equal(stabilize(M, group=group), stabilize(M))


def test_group_that_breaks_the_colors_is_a_usage_error(hollmann8):
    cfg, G = hollmann8
    M = with_fixed_points(cfg, [0])
    # G preserves the scheme, but some generator moves the point 0
    with pytest.raises(UsageError, match="does not preserve"):
        stabilize(M, group=G)
    with pytest.raises(UsageError, match="does not preserve"):
        extend_points(cfg, [0], group=G)
    with pytest.raises(UsageError, match="not a permutation"):
        stabilize(M, group=PermGroup(len(M), [(0,) * len(M)]))
    with pytest.raises(UsageError, match="acts on 29 points, not 28"):
        stabilize(M, group=PermGroup(len(M) + 1, []))


def test_fallback_certifies_when_the_counts_disagree(monkeypatch, small8):
    # hollmann_small(8) is the trivial scheme: its constructing group's G_0
    # has more orbits on cells than the extension has classes
    cfg, G = small8
    G0 = G.point_stabilizer(0)
    M = with_fixed_points(cfg, [0])
    today = stabilize(M)
    assert wl._group_route(wl._normalize(M), G0)[2] > int(today.max()) + 1
    certificates = without_certificate(monkeypatch)
    assert np.array_equal(stabilize(M, group=G0), today)
    assert certificates == [M.shape]


# The product route of the certificate (r^2 <= n): the products of a few
# colors, and the closure of the identity under them modulo a prime.

def route_verdict(M):
    """`products.certificate` on M, whose transposes close"""
    r = int(M.max()) + 1
    tau = np.zeros(r, dtype=np.int64)
    tau[M] = M.T
    return products.certificate(M, r, tau)


def certificate_spies(monkeypatch):
    """the product route's verdicts, and the cell counts handed to the
    sort kernel"""
    verdicts, kernel = [], []
    route, composition = products.certificate, wl._composition_mismatches

    def product_certificate(*args):
        verdicts.append(route(*args))
        return verdicts[-1]

    def composition_mismatches(M, cells):
        kernel.append(cells.size)
        return composition(M, cells)

    monkeypatch.setattr(products, "certificate", product_certificate)
    monkeypatch.setattr(wl, "_composition_mismatches", composition_mismatches)
    return verdicts, kernel


def three_fibers(m):
    """three fibers of m points: I and J - I inside each, J between two"""
    fiber = np.repeat(np.arange(3), m)
    M = np.where(fiber[:, None] == fiber, 3 + fiber[:, None], 6 + 3 * fiber[:, None] + fiber)
    np.fill_diagonal(M, fiber)
    return M


def test_product_route_maps_are_the_intersection_numbers(monkeypatch, hollmann16, hollmann32,
                                                         small32, passman_schemes):
    # L_s[u, t] = p^u_st for every chosen color s: packed products, one
    # pack or several (hollmann_large(32): 14 colors, 12 per int64), one
    # column from the row sums, and fibers of their own; the work
    # estimate is lifted so that all of them get there
    monkeypatch.setattr(products, "_CODE_WORK", 100)
    chosen, maps = [], []
    left, close = products._left_products, products._Span.close
    monkeypatch.setattr(products, "_left_products",
                        lambda M, s, *rest: chosen.append(int(s)) or left(M, s, *rest))
    monkeypatch.setattr(products._Span, "close", lambda span, L: maps.append(L) or close(span, L))
    for cfg in (hollmann16[0], hollmann32[0], small32[0], passman_schemes[9][0],
                passman_schemes[13][0], CoherentConfiguration(three_fibers(48))):
        del chosen[:], maps[:]
        assert cfg.rank ** 2 <= cfg.degree
        assert route_verdict(cfg.colors) is True
        values = cfg.tensor().values
        generated = maps[len(cfg.reflexive_colors()):]
        assert len(generated) == len(chosen) >= 1
        for s, L in zip(chosen, generated):
            assert np.array_equal(L, values[:, s, :]), (cfg, s)


def test_product_route_decides_the_structure_schemes(monkeypatch, hollmann32, small32,
                                                     passman_schemes):
    # the schemes that `cohcfg analyze --validate=full` checks on 496 and
    # 169 points: ranks 16, 4 and 8
    verdicts, kernel = certificate_spies(monkeypatch)
    for cfg in (hollmann32[0], small32[0], passman_schemes[13][0]):
        assert cfg.rank ** 2 <= cfg.degree
        assert cfg.validate("full").passed
    assert verdicts == [True] * 3 and kernel == []


def test_product_route_rejects_after_a_closure_one_short(monkeypatch, passman_schemes):
    # two colors of passman(7) fused, ids compacted in order: the first
    # color generates three of the four dimensions, and the products of
    # the second are not constant
    M = np.array([0, 2, 1, 1, 4])[passman_schemes[7][0].colors]
    M = np.unique(M, return_inverse=True)[1].reshape(M.shape)
    dims, close = [], products._Span.close
    monkeypatch.setattr(products._Span, "close",
                        lambda span, L: dims.append(close(span, L)) or dims[-1])
    assert route_verdict(M) is False
    assert dims == [1, 3]
    assert coherence_violations(M) == [(1, 1, 1)]


def test_product_route_rejects_unequal_row_counts_without_products(monkeypatch):
    # the path on 9 points has degrees 1 and 2: the diagonal of A_1 A_1
    # is not constant, which the last column's row sums assume
    M = np.full((9, 9), 2)
    np.fill_diagonal(M, 0)
    M[np.arange(8), np.arange(1, 9)] = M[np.arange(1, 9), np.arange(8)] = 1
    formed = []
    monkeypatch.setattr(products, "_left_products", lambda *args: formed.append(args))
    assert route_verdict(M) is False and formed == []
    assert not naive_is_coherent(M)


def test_product_route_leaves_a_diagonal_color_off_the_diagonal_to_the_sort(monkeypatch):
    # the 5-cycle with its non-edges colored as the diagonal: every row
    # holds color 0, but on three cells; (A_1 A_1) is 2 on the diagonal
    # and 1 on the non-edges
    M = np.zeros((5, 5), dtype=np.int64)
    M[np.arange(5), (np.arange(5) + 1) % 5] = M[(np.arange(5) + 1) % 5, np.arange(5)] = 1
    with monkeypatch.context() as patch:        # the sorted codes alone
        patch.setattr(products, "certificate", lambda *args: None)
        want = coherence_violations(M)
    verdicts, kernel = certificate_spies(monkeypatch)
    assert want and coherence_violations(M) == want
    assert verdicts == [None] and kernel


def test_extensions_keep_the_sorted_codes(monkeypatch, extend496):
    # ranks 3856 and 123136 on 496 points
    verdicts, kernel = certificate_spies(monkeypatch)
    for cfg, points in extend496:
        extend_points(cfg, points)
    assert verdicts == [] and len(kernel) == 2


def test_forced_fallbacks_give_the_sorted_codes_answer(monkeypatch, passman_schemes,
                                                       hollmann16, hollmann32):
    verdicts, kernel = certificate_spies(monkeypatch)
    # passman(9) is amorphic: each color generates only I, A_s and J, so
    # four of its five colors are needed, and an estimate of the sort cut
    # to a quarter admits one
    P9 = passman_schemes[9][0].colors
    assert coherence_violations(P9) == [] and verdicts == [True] and not kernel
    monkeypatch.setattr(products, "_CODE_WORK", 0.5)
    assert coherence_violations(P9) == [] and verdicts[1:] == [None] and len(kernel) == 1
    # one color of hollmann_large(32) generates its algebra; modulo 2 it
    # takes four, more than an estimate cut to 0.3 admits
    L32 = hollmann32[0].colors
    del verdicts[:], kernel[:]
    monkeypatch.setattr(products, "_CODE_WORK", 0.3)
    assert wl._is_coherent(L32) and verdicts == [True] and not kernel
    monkeypatch.setattr(products, "_PRIME", 2)
    assert wl._is_coherent(L32) and verdicts[1:] == [None] and len(kernel) == 1
    # a non-coherent fusion, rejected by the products, then with no work
    # admitted at all
    monkeypatch.undo()
    verdicts, kernel = certificate_spies(monkeypatch)
    fused = np.array([0, 1, 1, 2, 3, 4, 5, 6])[hollmann16[0].colors]
    want = coherence_violations(fused)
    assert want and verdicts[-1] is False
    monkeypatch.setattr(products, "_CODE_WORK", 0)
    assert coherence_violations(fused) == want and verdicts[-1] is None
