"""An independent coherence oracle for n <= 128 points.

A partition of the cells with adjacency matrices A_s is a coherent
configuration when the diagonal is a union of classes, the transpose of
a class is a class, and every product A_s A_t is a combination
sum_u p^u_st A_u, that is, constant on each class u.  The oracle forms
all r^2 products at once as one exact int64 sparse product: the stacked
rows [A_0; ...; A_{r-1}] times the stacked columns [A_0 ... A_{r-1}],
whose block (s, t) is A_s A_t.  It shares no code with the composition
kernel of `wl` or the tensors of `cc`.

It checks the outputs of the group route, which skips the engine's
certificate: the two-point extensions of claim 310520d at q = 3, 5, 7, 9
and the one-point extension of hollmann_large(8).
"""

import numpy as np
import pytest

from cohcfg import claims, wl
from cohcfg.wl import extend_points

from test_cc import cycle_partition, thin_scheme, trivial_scheme

sparse = pytest.importorskip("scipy.sparse")


def is_coherent_by_products(M):
    M = np.asarray(M, dtype=np.int64)
    n = len(M)
    assert n <= 128
    r = int(M.max()) + 1
    diagonal = np.zeros(r, dtype=bool)
    diagonal[np.diagonal(M)] = True
    if diagonal[M[~np.eye(n, dtype=bool)]].any():
        return False
    if len(set(zip(M.ravel().tolist(), M.T.ravel().tolist()))) != len(set(M.ravel().tolist())):
        return False            # a class whose transpose is not one class
    a, b = np.divmod(np.arange(n * n), n)
    c = M.ravel()
    ones = np.ones(n * n, dtype=np.int64)
    rows = sparse.csr_array((ones, (c * n + a, b)), shape=(r * n, n))   # row s*n + a: row a of A_s
    cols = sparse.csr_array((ones, (a, c * n + b)), shape=(n, r * n))   # column t*n + b: column b of A_t
    P = (rows @ cols).tocoo()
    assert P.data.dtype == np.int64
    s, x = np.divmod(P.row.astype(np.int64), n)
    t, y = np.divmod(P.col.astype(np.int64), n)
    # group the nonzero entries of A_s A_t by the class u of their cell:
    # each group must cover all of u with one value
    key = (s * r + t) * r + M[x, y]
    order = np.lexsort((P.data, key))
    key, value = key[order], P.data[order]
    start = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    end = np.append(start[1:], key.size)
    covers = end - start == np.bincount(c, minlength=r)[key[start] % r]
    return bool(covers.all() and (value[start] == value[end - 1]).all())


def test_oracle_on_known_configurations():
    assert is_coherent_by_products(thin_scheme(7).colors)
    assert is_coherent_by_products(trivial_scheme(5).colors)
    assert is_coherent_by_products(wl.stabilize(cycle_partition(6)))
    # the 6-cycle's edges square to the identity plus the distance-2 pairs,
    # which are only part of the non-edges
    assert not is_coherent_by_products(cycle_partition(6))
    # class 2 lies in two fiber pairs, so A_0 A_2 is not constant on it
    assert not is_coherent_by_products(np.array([[0, 2], [2, 1]]))
    # the transposes of class 1 fall in classes 1 and 2
    assert not is_coherent_by_products(np.array([[0, 1, 1], [2, 0, 1], [1, 1, 0]]))
    # one class: J J = 3 J, but the diagonal is not a union of classes
    assert not is_coherent_by_products(np.zeros((3, 3), dtype=np.int64))
    # the circulant graph C8(1, 2): every product is nonzero on all of a
    # class or on none of it, but adjacent points have 1 or 2 common
    # neighbours
    d = (np.arange(8)[None, :] - np.arange(8)[:, None]) % 8
    C8 = np.where(np.isin(d, (1, 2, 6, 7)), 2, 1)
    np.fill_diagonal(C8, 0)
    assert not is_coherent_by_products(C8)


def test_oracle_agrees_with_the_engine_on_random_partitions():
    rng = np.random.default_rng(3)
    seen = set()
    for _ in range(200):
        n = int(rng.integers(1, 6))
        M = rng.integers(0, 3, size=(n, n))
        np.fill_diagonal(M, 3)
        for X in (M, wl.stabilize(M)):
            verdict = is_coherent_by_products(X)
            assert verdict == (wl.coherence_violations(X) == [])
            seen.add(verdict)
    assert seen == {True, False}


def test_group_route_outputs_are_coherent(passman_schemes):
    outputs = [claims.large_extension(8)]
    for q in (3, 5, 7, 9):
        cfg, G, _ = passman_schemes[q]
        G0 = G.point_stabilizer(0)
        for t in range(cfg.rank):
            if not cfg.is_reflexive(t):
                a, b = cfg.first_pair(t)
                outputs.append(extend_points(cfg, (a, b), group=G0.stabilizer_prefix((b,))))
    assert len(outputs) == 1 + 2 + 3 + 4 + 5
    for ext in outputs:
        assert is_coherent_by_products(ext.colors)
