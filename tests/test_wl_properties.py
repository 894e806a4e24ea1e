"""Seeded property tests of `wl.stabilize` against the frozen exact
reference in test_wl: raw ids, relabeling of the points, idempotence,
the point split of `_normalize` against exact rounds, the group route;
of the certificate's product route against the sort kernel and the
sparse-product oracle of test_coherence_oracle; and of the canonical ids
of `CoherentConfiguration`: partition equality and the reflexive
classes."""

import math
from unittest import mock

import numpy as np
import pytest

from cohcfg import products, schemes, wl
from cohcfg.cc import CoherentConfiguration
from cohcfg.perm import PermGroup
from cohcfg.wl import stabilize

from test_cc import cycle_partition, unique_relabel
from test_wl import reference_round, reference_stabilize

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = hypothesis.settings(derandomize=True, database=None, max_examples=300,
                               deadline=None)


@st.composite
def color_matrices(draw):
    """n <= 7 points, up to 3 diagonal colors, a few off-diagonal ones;
    the palettes may overlap, and the ids may exceed n^2"""
    n = draw(st.integers(1, 7))
    diagonal = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    off = draw(st.integers(1, 4))
    start = draw(st.integers(0, 3))
    cells = draw(st.lists(st.integers(start, start + off - 1),
                          min_size=n * n, max_size=n * n))
    M = np.array(cells, dtype=np.int64).reshape(n, n)
    np.fill_diagonal(M, diagonal)
    ids = np.array(draw(st.permutations(range(8)))) * draw(st.sampled_from([1, 7]))
    return ids[M]


@st.composite
def recolored_trivial_schemes(draw):
    """the trivial scheme with one or two points recolored: the fiber
    split is its only refinement"""
    n = draw(st.integers(2, 7))
    M = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(M, 0)
    points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2, unique=True))
    for i, p in enumerate(points):
        M[p, p] = 2 + i
    return M


matrices = st.one_of(color_matrices(), recolored_trivial_schemes())


@SETTINGS
@hypothesis.given(matrices)
def test_raw_ids_equal_the_reference(M):
    assert np.array_equal(stabilize(M), reference_stabilize(M))


@SETTINGS
@hypothesis.given(matrices, st.integers(-2 ** 40, 2 ** 40))
def test_raw_ids_ignore_an_order_preserving_shift_of_the_ids(M, shift):
    # the frozen reference mishandles negative ids, so compare with M
    assert np.array_equal(stabilize(M + shift), stabilize(M))


@SETTINGS
@hypothesis.given(matrices, st.integers(0, 2 ** 20))
def test_normalize_compacts_ids_below_zero_and_past_the_cells(M, gap):
    # an increasing map of the ids: the least goes below 0, the others to
    # n^2 and above; compacting gives each id its rank among the values
    n2 = M.size
    spread = (M - M.min()) * (2 * n2 + gap) - n2
    assert spread.min() < 0
    assert spread.max() >= n2 or M.min() == M.max()
    ranks = np.unique(M, return_inverse=True)[1].reshape(M.shape)
    assert np.array_equal(wl._normalize(spread), wl._normalize(ranks))
    assert np.array_equal(stabilize(spread), stabilize(M))


@SETTINGS
@hypothesis.given(matrices, st.randoms(use_true_random=False))
def test_closure_commutes_with_relabeling_points(M, random):
    perm = np.array(random.sample(range(len(M)), len(M)))
    moved = stabilize(M[np.ix_(perm, perm)])
    assert np.array_equal(unique_relabel(moved),
                          unique_relabel(stabilize(M)[np.ix_(perm, perm)]))


@SETTINGS
@hypothesis.given(matrices)
def test_closure_is_idempotent(M):
    once = stabilize(M)
    assert np.array_equal(unique_relabel(stabilize(once)), unique_relabel(once))


def test_fiber_split_alone_is_renumbered_by_first_appearance(monkeypatch):
    M = np.ones((5, 5), dtype=np.int64)
    np.fill_diagonal(M, 0)
    M[0, 0] = 2
    ids = wl._normalize(M)
    real, rounds = wl._hash_round, []

    def recording(M, r, rng, *route):
        rounds.append(real(M, r, rng, *route))
        return rounds[-1]

    monkeypatch.setattr(wl, "_hash_round", recording)
    out = stabilize(M)
    # the labels split the off-diagonal class into row 0, column 0 and
    # the rest; the split classes are already coherent, so no round
    # splits a class, and the ids come from `_normalize` alone
    assert int(ids.max()) + 1 == 5
    assert all(rank == 5 for _, rank in rounds)
    assert np.array_equal(ids, reference_stabilize(M))
    assert np.array_equal(out, ids)


@st.composite
def individualized_matrices(draw):
    """(matrix, coherent): a matrix from `color_matrices` or a small
    coherent configuration (a cycle's closure, passman(3), hollmann_large(8)),
    with one to three points recolored on the diagonal, each to a new
    singleton fiber or, in about half the draws, two of them to one new
    2-point fiber; ``coherent`` when the base was coherent and every
    recolored point is a singleton"""
    kind = draw(st.sampled_from(["random", "cycle", "passman", "hollmann"]))
    if kind == "random":
        M = draw(color_matrices())
    elif kind == "cycle":
        M = stabilize(cycle_partition(draw(st.integers(5, 7))))
    elif kind == "passman":
        M = schemes.passman_scheme(3)[0].colors
    else:
        M = schemes.hollmann_large(8)[0].colors
    M = np.array(M, dtype=np.int64)
    n = len(M)
    points = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n),
                           unique=True))
    pair = len(points) >= 2 and draw(st.booleans())
    new = int(M.max()) + 1
    for i, p in enumerate(points):
        M[p, p] = new + (0 if pair and i < 2 else i)
    return M, kind != "random" and not pair


def partition_pairs(fine, coarse):
    """the distinct (fine, coarse) id pairs over the cells"""
    return set(zip(fine.ravel().tolist(), coarse.ravel().tolist()))


@SETTINGS
@hypothesis.given(individualized_matrices())
def test_point_split_is_two_exact_rounds_at_most(drawn):
    # exact round 1 makes the fiber split; the point labels read fibers
    # that only round 1 names, so two rounds refine the point split, and
    # on a coherent input with singletons individualized they equal it
    M, coherent = drawn
    n = len(M)
    r = int(M.max()) + 1
    base = np.unique((M * r + M.T) * 2 + np.eye(n, dtype=np.int64),
                     return_inverse=True)[1].reshape(n, n)
    exact = reference_round(reference_round(base))
    ids = wl._normalize(M)
    pairs = partition_pairs(exact, ids)
    assert len(pairs) == len({e for e, _ in pairs})        # exact refines the split
    if coherent:
        assert len(pairs) == len({i for _, i in pairs})
    assert np.array_equal(stabilize(M), reference_stabilize(M))


@st.composite
def groups_and_points(draw):
    """a group on n <= 12 points from up to three random generators, and a
    point x"""
    n = draw(st.integers(1, 12))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return PermGroup(n, gens), draw(st.integers(0, n - 1))


@SETTINGS
@hypothesis.given(groups_and_points())
def test_point_stabilizer_route_keeps_raw_ids(drawn):
    # the one-point extension of G's orbitals at x, with and without G_x;
    # the orbit count is never below the closure's rank
    G, x = drawn
    M = G.orbitals().colors.copy()
    M[x, x] = M.max() + 1
    H = G.point_stabilizer(x)
    today = stabilize(M)
    assert np.array_equal(stabilize(M, group=H), today)
    assert H.orbital_count() == H.orbitals().rank >= int(today.max()) + 1


@st.composite
def relabeled_pairs(draw):
    """a matrix of n <= 6 points with up to 4 ids, diagonal and
    off-diagonal ones mixed, and its image under a bijection of the ids
    and a permutation of the points (the identity in about half the
    draws)"""
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    a = np.array(draw(st.lists(st.integers(0, k - 1), min_size=n * n,
                               max_size=n * n))).reshape(n, n)
    ids = np.array(draw(st.permutations(range(k)))) * draw(st.sampled_from([1, 9]))
    perm = draw(st.one_of(st.just(list(range(n))), st.permutations(range(n))))
    return a, ids[a][np.ix_(perm, perm)]


@SETTINGS
@hypothesis.given(relabeled_pairs())
def test_equal_canonical_arrays_are_equal_partitions(pair):
    a, b = pair
    want = np.array_equal(unique_relabel(a), unique_relabel(b))
    assert CoherentConfiguration(a).same_partition(CoherentConfiguration(b)) == want


@SETTINGS
@hypothesis.given(relabeled_pairs())
def test_reflexive_colors_are_the_diagonal_ids(pair):
    for M in pair:
        cfg = CoherentConfiguration(M)
        diagonal = cfg.colors.diagonal()
        assert cfg.reflexive_colors() == sorted(set(diagonal.tolist()))
        off = cfg.colors[~np.eye(len(M), dtype=bool)]
        impure = ("diagonal-classes-pure", None) in cfg.validate().failures
        assert impure == bool(np.isin(off, diagonal).any())


LOW_RANK_SCHEMES = [(schemes.hollmann_large, 8), (schemes.hollmann_large, 16),
                    (schemes.passman_scheme, 5), (schemes.passman_scheme, 7),
                    (schemes.passman_scheme, 9), (schemes.hollmann_small, 8)]


@st.composite
def low_rank_fusions(draw):
    """a random fusion of the colors of a scheme with r^2 <= n, in about
    half the draws with the diagonal kept pure, and in about half with
    one symmetric pair of cells recolored"""
    build, q = draw(st.sampled_from(LOW_RANK_SCHEMES))
    cfg = build(q)[0]
    r = cfg.rank
    least = draw(st.sampled_from([0, 1]))      # 0: an irreflexive color may join the diagonal
    fuse = np.array([0] + draw(st.lists(st.integers(least, r - 1), min_size=r - 1,
                                        max_size=r - 1)))
    M = fuse[cfg.colors]
    if draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, cfg.degree - 1), min_size=2, max_size=2,
                             unique=True))
        M[a, b] = M[b, a] = draw(st.integers(1, r - 1))
    return M


@st.composite
def low_rank_symmetric_partitions(draw):
    """n <= 40 points, the diagonal colored 0 and fewer than sqrt(n)
    symmetric off-diagonal colors, from a seeded generator; in about half
    the draws a few symmetric pairs of cells take the diagonal's color"""
    n = draw(st.integers(4, 40))
    k = draw(st.integers(1, math.isqrt(n) - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    M = np.triu(rng.integers(1, k + 1, size=(n, n)), 1)
    if draw(st.booleans()):
        a, b = np.triu_indices(n, 1)
        pick = rng.choice(a.size, size=draw(st.integers(1, 3)), replace=False)
        M[a[pick], b[pick]] = 0
    return M + M.T


@SETTINGS
@hypothesis.given(st.one_of(low_rank_fusions(), low_rank_symmetric_partitions()))
def test_product_route_agrees_with_the_sort_kernel_and_the_oracle(M):
    oracle = pytest.importorskip("test_coherence_oracle")
    M = np.unique(M, return_inverse=True)[1].reshape(M.shape)   # no unused ids
    r = int(M.max()) + 1
    assert r * r <= len(M)
    with mock.patch.object(products, "certificate", lambda *args: None):
        kernel = wl._is_coherent(M)
    assert wl._is_coherent(M) == kernel
    # the oracle rejects a diagonal color off the diagonal, which the sort
    # kernel's multisets need not
    off = M[~np.eye(len(M), dtype=bool)]
    if not np.isin(off, np.diagonal(M)).any():
        assert kernel == oracle.is_coherent_by_products(M)
    if len(set(zip(M.ravel().tolist(), M.T.ravel().tolist()))) == r:
        tau = np.zeros(r, dtype=np.int64)
        tau[M] = M.T
        assert products.certificate(M, r, tau) in (kernel, None)
