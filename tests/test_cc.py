import numpy as np
import pytest

from cohcfg.cc import (CoherentConfiguration, IntersectionTensor,
                       algebraic_fusion, canonicalize_colors, cells_by_color,
                       color_classes, induced_color_action, tensor_bijections)
from cohcfg.errors import (ColorActionError, IntegrityError,
                           ResourceLimitError, UsageError)
from cohcfg.perm import PermGroup
from cohcfg.schemes import AffinePlanePoints, ExteriorPairPoints


def cycle_partition(n):
    """diagonal / edges / non-edges of the n-cycle"""
    M = np.full((n, n), 2)
    np.fill_diagonal(M, 0)
    for i in range(n):
        M[i, (i + 1) % n] = 1
        M[(i + 1) % n, i] = 1
    return M


def thin_scheme(n):
    """regular scheme of the cyclic group of order n"""
    c = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [c]).orbitals()


def trivial_scheme(n):
    M = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(M, 0)
    return CoherentConfiguration(M)


def brute_force_triple_counts(M, r, s, t):
    """all values of |a r . b s*| over pairs (a, b) of color t"""
    n = M.shape[0]
    out = set()
    for a in range(n):
        for b in range(n):
            if M[a, b] != t:
                continue
            count = sum(1 for g in range(n) if M[a, g] == r and M[g, b] == s)
            out.add(count)
    return out


def triangle_identity_holds(tensor, transpose):
    """n_t c_{rs}^{t*} = n_r c_{st}^{r*} = n_s c_{tr}^{s*} for all r, s, t."""
    n = tensor.valencies.astype(np.int64)
    # W[a, b, c] = n_a c_{bc}^{a*}; the three sides at [r, s, t] are
    # W[t, r, s], W[r, s, t] and W[s, t, r]
    W = n[:, None, None] * tensor.values.astype(np.int64)[transpose]
    return (np.array_equal(W.transpose(1, 2, 0), W)
            and np.array_equal(W.transpose(2, 0, 1), W))


def dot_product_colors(cfg, r, s):
    """Colors on the cells of the dot product r . s."""
    source, target = cfg.fiber_colors()
    assert target[r] == source[s]
    A = (cfg.colors == r).astype(np.int64)
    B = (cfg.colors == s).astype(np.int64)
    return sorted(np.unique(cfg.colors[(A @ B) > 0]).tolist())


def test_validate_discrete():
    cfg = PermGroup(4, []).orbitals()
    assert cfg.validate("axioms").passed
    assert cfg.validate("full").passed


def test_validate_pentagon_is_coherent():
    # the 5-cycle partition equals the dihedral orbitals, hence coherent
    cfg = CoherentConfiguration(cycle_partition(5))
    assert cfg.validate("full").passed


def test_validate_hexagon_fails_with_witness_triple():
    cfg = CoherentConfiguration(cycle_partition(6))
    rep = cfg.validate("full")
    assert not rep.passed
    label, triple = rep.failures[0]
    assert label == "coherent"
    r, s, t = triple
    # the named triple really is non-constant, by brute force
    assert len(brute_force_triple_counts(cfg.colors, r, s, t)) > 1


def test_tensor_trivial_scheme():
    cfg = trivial_scheme(7)
    tensor = cfg.tensor()
    assert tensor.values[1, 1, 1] == 5      # n - 2 common neighbours
    assert cfg.m_t(1) == 5


def test_tensor_thin_scheme():
    cfg = thin_scheme(5)
    tensor = cfg.tensor()
    assert set(np.unique(tensor.values)) == {0, 1}


def test_tensor_detects_incoherence():
    cfg = CoherentConfiguration(cycle_partition(6))
    with pytest.raises(IntegrityError) as err:
        cfg.tensor()
    assert err.value.triple is not None


def test_tensor_rejects_negative_seed(hollmann16):
    # a fresh copy has no cached tensor, and 120 points take the sampled route
    cfg = CoherentConfiguration(hollmann16[0].colors)
    with pytest.raises(UsageError):
        cfg.tensor(seed=-1)
    with pytest.raises(UsageError):
        thin_scheme(5).tensor(seed=-2)


def test_tensor_bijections_of_a_cyclic_group_are_its_automorphisms():
    # the thin scheme of Z_5 has c_{a b}^{c} = [c = a + b], so the
    # tensor-preserving bijections are x -> kx, in lexicographic order
    values = thin_scheme(5).tensor().values
    allowed = np.ones((5, 5), dtype=bool)
    found = list(tensor_bijections(values, values, allowed))
    assert found == [tuple(k * x % 5 for x in range(5)) for k in (1, 2, 3, 4)]
    allowed[:, 0] = False
    allowed[0, 0] = True
    allowed[1, 3] = False   # drops x -> 3x only
    assert list(tensor_bijections(values, values, allowed)) == [found[0], found[1], found[3]]
    allowed[2] = False   # an empty row leaves nothing to yield
    assert list(tensor_bijections(values, values, allowed)) == []


def test_tensor_bijections_between_two_tensors():
    # B is A relabelled by sigma, so the bijections A -> B are sigma
    # composed with the automorphisms, and a mismatch yields nothing
    A = thin_scheme(5).tensor().values
    sigma = np.array([0, 3, 1, 4, 2])
    B = np.empty_like(A)
    B[np.ix_(sigma, sigma, sigma)] = A
    allowed = np.ones((5, 5), dtype=bool)
    auts = list(tensor_bijections(A, A, allowed))
    got = list(tensor_bijections(A, B, allowed))
    assert got == sorted(tuple(sigma[list(a)].tolist()) for a in auts)
    assert all(np.array_equal(A, B[np.ix_(p, p, p)]) for p in map(list, got))
    assert list(tensor_bijections(A, B + (B == 0), allowed)) == []


def test_tensor_identities(hollmann8, passman_schemes):
    for cfg in (hollmann8[0], passman_schemes[5][0], thin_scheme(6)):
        tensor = cfg.tensor()
        ok, _ = tensor.row_sums_ok()
        assert ok
        ok, _ = tensor.product_identity_ok()
        assert ok
        assert triangle_identity_holds(tensor, cfg.transpose_map())


def test_hollmann8_intersection_numbers_small(hollmann8):
    cfg, _ = hollmann8
    values = cfg.tensor().values
    for t in range(cfg.rank):
        if cfg.is_reflexive(t):
            continue
        for r in range(1, cfg.rank):
            for s in range(1, cfg.rank):
                assert values[t, r, s] <= 4


def test_indistinguishing_numbers(hollmann8, passman_schemes):
    cfg, _ = hollmann8
    per_color, overall = cfg.indistinguishing_numbers()
    assert overall == 8
    assert all(v == 8 for v in per_color.values())
    cfg5 = passman_schemes[5][0]
    assert cfg5.indistinguishing_numbers()[1] == 7
    # semiregular configuration: c(X) = 0
    assert thin_scheme(6).indistinguishing_numbers()[1] == 0


def test_indistinguishing_direct_count_matches_definition(passman_schemes,
                                                          hollmann8):
    # full per-pair check of the defining count at desk degrees
    for cfg in (passman_schemes[3][0], hollmann8[0]):
        M = cfg.colors
        per_color, _ = cfg.indistinguishing_numbers()
        for s, c in per_color.items():
            cells = np.argwhere(M == s)
            for a, b in cells:
                assert np.count_nonzero(M[:, a] == M[:, b]) == c


def test_pseudocyclic(hollmann16, passman_schemes):
    assert thin_scheme(5).is_pseudocyclic() == (True, 1)
    cfg, _ = hollmann16
    assert cfg.is_pseudocyclic() == (True, 17)
    assert passman_schemes[7][0].is_pseudocyclic() == (True, 12)
    flag, _ = trivial_scheme(6).is_pseudocyclic()
    assert flag
    with pytest.raises(UsageError):
        PermGroup(3, []).orbitals().is_pseudocyclic()


def test_partly_regular():
    disc = PermGroup(4, []).orbitals()
    flag, pts = disc.is_partly_regular()
    assert flag and pts == [0, 1, 2, 3]
    assert not trivial_scheme(5).is_partly_regular()[0]
    assert thin_scheme(5).is_partly_regular()[0]
    assert thin_scheme(5).is_semiregular()


def test_degree_one_configuration():
    cfg = CoherentConfiguration(np.zeros((1, 1), dtype=int))
    assert cfg.is_discrete() and cfg.is_trivial_scheme()
    assert cfg.is_partly_regular()[0]
    assert cfg.is_semiregular()


def test_empty_restriction_is_the_degree_zero_configuration(hollmann8):
    empty = hollmann8[0].restriction([])
    assert (empty.degree, empty.rank, empty.colors.shape) == (0, 0, (0, 0))
    assert empty.reflexive_colors() == [] and not empty.is_homogeneous()
    assert empty.validate("full").passed


@pytest.mark.parametrize("dtype", [float, bool, object])
def test_non_integer_colors_are_a_usage_error(dtype):
    with pytest.raises(UsageError, match="integers"):
        CoherentConfiguration(cycle_partition(4).astype(dtype))


def test_restriction(hollmann8):
    from cohcfg.wl import extend_points

    cfg, _ = hollmann8
    assert cfg.restriction(range(cfg.degree)).same_partition(cfg)
    xa = extend_points(cfg, [0])
    delta = [f for f in xa.fibers() if len(f) > 1][0]
    sub = xa.restriction(delta.tolist())
    assert sub.degree == 9
    assert sub.is_homogeneous()
    assert sub.validate("full").passed
    with pytest.raises(UsageError):
        xa.restriction(delta.tolist()[:4])
    disc = PermGroup(5, []).orbitals()
    assert disc.restriction([1, 3]).is_discrete()


def test_matchings(hollmann16):
    from cohcfg.wl import extend_points

    triv = trivial_scheme(5)
    assert triv.matchings_between(0, 0) == [0]   # only the reflexive class
    cfg, _ = hollmann16
    xa = extend_points(cfg, [0])
    fibers = xa.fibers()
    nonsingleton = [i for i, f in enumerate(fibers) if len(f) > 1]
    for j in nonsingleton[:3]:
        assert xa.matchings_between(nonsingleton[0], j)
    singleton = [i for i, f in enumerate(fibers) if len(f) == 1][0]
    assert xa.matchings_between(singleton, singleton) == [xa.reflexive_colors()[singleton]]


def test_dot_product(hollmann8):
    from cohcfg.wl import extend_points

    cfg, _ = hollmann8
    xa = extend_points(cfg, [0])
    refl = xa.reflexive_colors()
    # identity relation composes to the other factor
    delta_idx = next(i for i, f in enumerate(xa.fibers()) if len(f) > 1)
    s = xa.matchings_between(delta_idx, delta_idx)[0]
    assert dot_product_colors(xa, refl[delta_idx], s) == [s]
    # a matching composed with a matching is a matching
    other = next(i for i, f in enumerate(xa.fibers())
                 if len(f) > 1 and i != delta_idx)
    m1 = xa.matchings_between(delta_idx, other)[0]
    m2 = xa.matchings_between(other, delta_idx)[0]
    cols = dot_product_colors(xa, m1, m2)
    assert len(cols) == 1
    v = xa.valencies()
    t = xa.transpose_map()
    assert v[cols[0]] == 1 and v[t[cols[0]]] == 1
    # r . r* contains the reflexive class of the source fiber
    r = next(s for s in range(cfg.rank) if not cfg.is_reflexive(s))
    assert 0 in dot_product_colors(cfg, r, int(cfg.transpose_map()[r]))


def test_m_t_guards(passman_schemes):
    cfg, _, Y = passman_schemes[5]
    with pytest.raises(UsageError):
        cfg.m_t(0)
    t = int(cfg.colors[0, 6])
    assert cfg.m_t(t) == 4
    u = int(Y.colors[0, 6])
    assert Y.m_t(u) == 2   # brute-force pinned: two orbit overlaps occur


def test_m_u_brute_force(passman_schemes):
    # independent recount of the maximum overlap on the designated color
    q = 5
    _, _, Y = passman_schemes[q]
    M = Y.colors
    u = int(M[0, q + 1])
    worst = 0
    for a, b in np.argwhere(M == u):
        codes = M[a, :] * Y.rank + M[:, b]
        worst = max(worst, int(np.bincount(codes).max()))
    assert worst == 2 == Y.m_t(u)


def test_fusion_trivial_group(hollmann8):
    cfg, _ = hollmann8
    fused, fmap = algebraic_fusion(cfg, [tuple(range(cfg.rank))])
    assert fused.same_partition(cfg)
    assert fmap.order == 1


def test_fusion_by_frobenius_gives_trivial_scheme(hollmann8):
    cfg, _ = hollmann8
    pts = ExteriorPairPoints(8)
    phi = induced_color_action(cfg, pts.frobenius_permutation())
    assert sorted(phi) == list(range(cfg.rank))
    fused, fmap = algebraic_fusion(cfg, [phi])
    assert fmap.order == 3
    assert fused.is_trivial_scheme()


def test_fusion_rejects_non_tensor_preserving(passman_schemes):
    _, _, Y = passman_schemes[5]
    values = Y.tensor().values
    bogus = None
    for a in range(Y.rank):
        for b in range(a + 1, Y.rank):
            if Y.is_reflexive(a) or Y.is_reflexive(b):
                continue
            phi = np.arange(Y.rank)
            phi[a], phi[b] = b, a
            if not np.array_equal(values[np.ix_(phi, phi, phi)], values):
                bogus = tuple(int(x) for x in phi)
                break
        if bogus:
            break
    assert bogus is not None
    with pytest.raises(UsageError):
        algebraic_fusion(Y, [bogus])
    # moving a reflexive class is rejected up front
    swap_reflexive = list(range(Y.rank))
    swap_reflexive[0], swap_reflexive[1] = swap_reflexive[1], swap_reflexive[0]
    with pytest.raises(UsageError):
        algebraic_fusion(Y, [tuple(swap_reflexive)])


def test_passman_fusion_identity(passman_schemes):
    for q in (3, 5):
        cfg, G, Y = passman_schemes[q]
        gens = [induced_color_action(Y, g)
                for g in AffinePlanePoints(q).signed_swap_generators()]
        fused, fmap = algebraic_fusion(Y, gens)
        assert fmap.order == 4
        assert fused.same_partition(cfg)
        # the fused rank forced by the full scheme: 1 + (q+1)/2
        assert fused.rank == 1 + (q + 1) // 2


def test_induced_color_action(hollmann32, passman_schemes):
    cfg, G = hollmann32
    phi = induced_color_action(cfg, ExteriorPairPoints(32).frobenius_permutation())
    order, p = 1, tuple(phi)
    while p != tuple(range(cfg.rank)):
        p = tuple(phi[i] for i in p)
        order += 1
    assert order == 5
    # any automorphism induces the identity on colors
    ident = induced_color_action(cfg, G.generators[0])
    assert ident == tuple(range(cfg.rank))
    # the antidiagonal signed permutation acts on the subgroup scheme with order 2
    _, _, Y = passman_schemes[5]
    swap = AffinePlanePoints(5).signed_swap_generators()[1]
    phi2 = induced_color_action(Y, swap)
    assert phi2 != tuple(range(Y.rank))
    assert tuple(phi2[i] for i in phi2) == tuple(range(Y.rank))


def test_induced_color_action_failure(passman_schemes):
    cfg, _, _ = passman_schemes[3]
    f = list(range(cfg.degree))
    f[1], f[2] = f[2], f[1]
    with pytest.raises(ColorActionError) as err:
        induced_color_action(cfg, tuple(f))
    assert err.value.witness is not None


def test_partition_equality_is_label_independent():
    M = cycle_partition(5)
    relabeled = np.array([[2, 0, 1][c] for c in M.ravel()]).reshape(M.shape)
    cfg = CoherentConfiguration(M)
    assert cfg.same_partition(CoherentConfiguration(relabeled))
    assert not cfg.same_partition(CoherentConfiguration(cycle_partition(6)[:5, :5]))


def test_canonical_ids_reflexive_first_then_valency():
    cfg = CoherentConfiguration(cycle_partition(5))
    assert cfg.reflexive_colors() == [0]
    v = cfg.valencies()
    assert v[0] == 1 and list(v[1:]) == sorted(v[1:])


def loop_valencies(M, first_rows):
    """count of s in the first row containing s, one row at a time"""
    valency = np.zeros(len(first_rows), dtype=np.int64)
    for a in range(M.shape[0]):
        row_classes, counts = np.unique(M[a], return_counts=True)
        sel = first_rows[row_classes] == a
        valency[row_classes[sel]] = counts[sel]
    return valency


def loop_canonicalize(colors):
    n = colors.shape[0]
    _, first, inv = np.unique(colors, return_index=True, return_inverse=True)
    M = inv.reshape(n, n)
    reflexive = np.zeros(len(first), dtype=bool)
    reflexive[M.diagonal()] = True
    valency = loop_valencies(M, first // n)
    order = np.lexsort((first, valency, (~reflexive).astype(np.int64)))
    rank = np.empty(len(first), dtype=np.int64)
    rank[order] = np.arange(len(first))
    return rank[M]


def test_vectorized_row_counts_match_row_loops():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        colors = rng.integers(0, int(rng.integers(1, 2 * n + 2)), size=(n, n))
        canonical = canonicalize_colors(colors)[0]
        assert np.array_equal(canonical, loop_canonicalize(colors))
        cfg = CoherentConfiguration(canonical)
        assert np.array_equal(cfg.valencies(),
                              loop_valencies(cfg.colors, cfg.first_rows))
        assert cfg.regular_points() == [
            a for a in range(n) if len(set(colors[a].tolist())) == n]


def test_same_partition_allocates_under_a_byte_per_cell(hollmann32, small32):
    import tracemalloc

    large, small = hollmann32[0], small32[0]
    again = CoherentConfiguration(large.colors.max() - large.colors)
    for a, b, equal in [(large, again, True), (large, small, False)]:
        tracemalloc.start()
        try:
            assert a.same_partition(b) == equal
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < large.colors.size


def test_tensor_rank_guard():
    assert PermGroup(17, []).orbitals().tensor().values.shape == (289,) * 3
    big = PermGroup(26, []).orbitals()   # rank 676: 676^3 int32 is 1.2 GB
    with pytest.raises(ResourceLimitError, match="tensor of rank 676"):
        big.tensor()


def loop_row_sums_ok(tensor):
    """Reference: the r x r double loop over the row sums."""
    sums = tensor.values.astype(np.int64).sum(axis=2)
    rank = sums.shape[0]
    for t in range(rank):
        for r in range(rank):
            if sums[t, r] not in (0, int(tensor.valencies[r])):
                return False, (t, r)
    return True, None


def loop_product_identity_ok(tensor):
    """Reference: the r x r double loop over sum_t c_{rs}^t n_t."""
    nt = tensor.valencies.astype(np.int64)
    lhs = np.tensordot(nt, tensor.values.astype(np.int64), axes=(0, 0))
    rank = lhs.shape[0]
    for r in range(rank):
        for s in range(rank):
            if lhs[r, s] not in (0, int(nt[r]) * int(nt[s])):
                return False, (r, s)
    return True, None


def test_tensor_checks_match_the_loops(hollmann8, passman_schemes):
    rng = np.random.default_rng(11)
    for cfg in (hollmann8[0], passman_schemes[5][0], passman_schemes[7][2],
                thin_scheme(6), trivial_scheme(4)):
        good = cfg.tensor()
        tensors = [good]
        for _ in range(6):
            # corrupt one or two intersection numbers
            values = good.values.copy()
            for _ in range(int(rng.integers(1, 3))):
                t, r, s = rng.integers(0, cfg.rank, size=3)
                values[t, r, s] += int(rng.integers(1, 3))
            tensors.append(IntersectionTensor(values, good.valencies))
        for tensor in tensors:
            assert tensor.row_sums_ok() == loop_row_sums_ok(tensor)
            assert tensor.product_identity_ok() == loop_product_identity_ok(tensor)
        assert good.row_sums_ok() == (True, None)
        assert any(not t.row_sums_ok()[0] for t in tensors[1:])
        assert any(not t.product_identity_ok()[0] for t in tensors[1:])


def id_corpus():
    """Seeded flat id arrays covering every radix width and inverse route:
    empty, one cell, dense 0..r-1, ids below 2^16, up to 2^20, sparse ids
    at or above n^2, and ids at or above 2^32."""
    rng = np.random.default_rng(11)
    yield np.empty(0, dtype=np.int64)
    yield np.array([5])
    yield rng.permutation(np.repeat(np.arange(50), 8))
    for n, lo, hi in [(1, 0, 1), (6, 0, 4), (20, 0, 300), (300, 0, 1 << 16),
                      (40, 0, 1 << 20), (30, 900, 1800), (25, 1 << 32, 1 << 40)]:
        yield rng.integers(lo, hi, size=n * n)
        # few distinct ids spread over the range
        yield rng.choice(rng.integers(lo, hi, size=5), size=n * n)


def unique_relabel(colors):
    """classes numbered by first appearance in row-major order, on
    np.unique: two matrices have the same partition exactly when these
    are equal arrays"""
    _, first, inv = np.unique(colors, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(len(first))
    return rank[inv].reshape(colors.shape)


def test_cells_by_color_matches_argsort_and_unique():
    for flat in id_corpus():
        assert np.array_equal(cells_by_color(flat),
                              np.argsort(flat, kind="stable"))
        want = np.unique(flat, return_index=True, return_inverse=True)
        for got, expected in zip(color_classes(flat), want):
            assert np.array_equal(got, expected.ravel())
    shifted = np.array([3, -7, 0, -7, 3, 2 ** 40])
    assert np.array_equal(cells_by_color(shifted),
                          np.argsort(shifted, kind="stable"))


def test_color_grouping_matches_unique_copies():
    squares = 0
    for flat in id_corpus():
        n = int(np.sqrt(flat.size))
        if n * n != flat.size or n == 0:
            continue
        squares += 1
        colors = flat.reshape(n, n)
        assert np.array_equal(canonicalize_colors(colors)[0],
                              loop_canonicalize(colors))
        cfg = CoherentConfiguration(colors)
        _, first = np.unique(cfg.colors, return_index=True)
        assert np.array_equal(cfg.first_rows, first // n)
        assert np.array_equal(cfg.first_cols, first % n)
    assert squares >= 12
