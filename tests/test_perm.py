import time

import numpy as np
import pytest

from cohcfg.cc import CoherentConfiguration
from cohcfg import perm
from cohcfg.errors import UsageError
from cohcfg.perm import PermGroup, identity, perm_order
from cohcfg.schemes import AffinePlanePoints, ExteriorPairPoints


def compose(p, q):
    """Apply p, then q."""
    return tuple(q[i] for i in p)


def inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def brute_force_closure(gens, degree):
    """Multiplication-closure oracle, independent of the chain code."""
    seen = {identity(degree)}
    frontier = list(seen)
    while frontier:
        new = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


def test_compose_inverse():
    p = (1, 2, 0)
    q = (0, 2, 1)
    assert compose(p, q) == (2, 1, 0)
    assert compose(p, inverse(p)) == identity(3)
    assert perm_order(p) == 3
    assert perm_order((1, 0, 3, 2)) == 2


def test_empty_generators():
    G = PermGroup(5, [])
    assert G.order() == 1
    assert G.point_stabilizer(3).order() == 1


def test_symmetric_group_order():
    G = PermGroup(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert G.order() == 24
    assert sorted(G.elements()) == sorted(brute_force_closure(G.generators, 4))


def test_passman_group_order_against_closure_oracle():
    q = 5
    pts = AffinePlanePoints(q)
    gens = pts.frobenius_group_generators() + pts.signed_swap_generators()
    G = PermGroup(len(pts), gens)
    assert G.order() == 4 * q * q * (q - 1) == 400
    assert len(brute_force_closure(gens, len(pts))) == 400
    assert G.point_stabilizer(0).order() == 4 * (q - 1) == 16


def test_psl_order_and_stabilizer():
    pts = ExteriorPairPoints(8)
    G = PermGroup(len(pts), pts.moebius_generators())
    assert G.degree == 28
    assert G.order() == 8 * (64 - 1) == 504
    stab = G.point_stabilizer(5)
    assert stab.order() == 18
    assert all(g[5] == 5 for g in stab.generators)


def test_cyclic_regular_stabilizer_trivial():
    c7 = tuple((i + 1) % 7 for i in range(7))
    G = PermGroup(7, [c7])
    assert G.order() == 7
    assert G.point_stabilizer(2).order() == 1


def orbit_of_pair(G, a, b):
    """Orbit of the ordered pair (a, b), as a set of pairs."""
    n = G.degree
    least = perm._orbit_minima(n, G.generators, 2)
    rows, cols = np.divmod(np.flatnonzero(least == least[a * n + b]), n)
    return set(zip(rows.tolist(), cols.tolist()))


def test_orbit_of_pair():
    G = PermGroup(5, [])
    assert orbit_of_pair(G, 0, 1) == {(0, 1)}
    S3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    assert orbit_of_pair(S3, 0, 1) == {(a, b) for a in range(3)
                                       for b in range(3) if a != b}
    pts = ExteriorPairPoints(8)
    G = PermGroup(len(pts), pts.moebius_generators())
    assert len(orbit_of_pair(G, 0, 1)) == 28 * 9


def test_orbits_match_the_group_closure():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        gens = [tuple(int(x) for x in rng.permutation(n))
                for _ in range(int(rng.integers(0, 3)))]
        elements = brute_force_closure(gens, n)
        G = PermGroup(n, gens)
        for p in range(n):
            assert G.orbit(p) == sorted({g[p] for g in elements})


def test_orbit_rejects_points_out_of_range():
    C3 = PermGroup(3, [(1, 2, 0)])
    assert C3.orbit(2) == [0, 1, 2]
    for G, point in ((C3, -1), (C3, 3), (PermGroup(3, []), 7),
                     (PermGroup(3, []), 3)):
        with pytest.raises(UsageError):
            G.orbit(point)


def relabelled(gens, sigma):
    """The permutations sigma g sigma^-1, i.e. g with each point x
    renamed sigma[x]."""
    out = []
    for g in gens:
        h = np.empty_like(sigma)
        h[sigma] = sigma[np.asarray(g)]
        out.append(h)
    return out


def test_orbit_minima_one_orbit_on_long_cycles_and_paths():
    # Propagating labels without the root hook needs tens of thousands
    # of rounds here (15-70 s of CPU); the hooked rounds number about a
    # dozen (30-45 ms).
    n = 100_000
    rng = np.random.default_rng(3)
    shift = (np.arange(n) + 1) % n
    even, odd = np.arange(n), np.arange(n)
    even[0:n - 1:2], even[1:n:2] = np.arange(1, n, 2), np.arange(0, n - 1, 2)
    odd[1:n - 1:2], odd[2:n:2] = np.arange(2, n, 2), np.arange(1, n - 1, 2)
    for gens in ([shift], [even, odd]):
        start = time.process_time()
        least = perm._orbit_minima(n, relabelled(gens, rng.permutation(n)), 1)
        assert time.process_time() - start < 3.0
        assert not least.any()
    # the pairs of a relabelled m-cycle fall into m orbits of size m
    m = 317
    least = perm._orbit_minima(m, relabelled([shift[:m] % m], rng.permutation(m)), 2)
    assert least.dtype == np.int32
    sizes = np.bincount(least)
    assert np.array_equal(sizes[sizes > 0], np.full(m, m))


def test_orbit_minima_match_schreier_graph_components():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        gens = []
        for _ in range(int(rng.integers(0, 4))):
            g = rng.permutation(n)
            if rng.random() < 0.5:   # a short cycle instead
                g = np.arange(n)
                cycle = rng.choice(n, size=min(n, int(rng.integers(1, 4))),
                                   replace=False)
                g[cycle] = np.roll(cycle, 1)
            gens.append(tuple(int(x) for x in g))
        for ndim in (1, 2):
            graph = nx.Graph()
            graph.add_nodes_from(range(n ** ndim))
            for g in gens:
                image = np.asarray(g)
                if ndim == 2:
                    image = (image[:, None] * n + image).ravel()
                graph.add_edges_from(enumerate(image.tolist()))
            expected = np.empty(n ** ndim, dtype=np.int64)
            for component in nx.connected_components(graph):
                expected[list(component)] = min(component)
            assert np.array_equal(perm._orbit_minima(n, gens, ndim), expected)
        assert np.array_equal(PermGroup(n, gens).orbit_minima(),
                              perm._orbit_minima(n, gens, 1))


def test_orbitals_of_a_conjugated_group_are_the_relabelled_orbitals(
        hollmann8, passman_schemes):
    rng = np.random.default_rng(23)
    groups = [hollmann8[1], passman_schemes[5][1], PermGroup(6, []),
              PermGroup(7, [tuple((i + 1) % 7 for i in range(7))])]
    for G in groups:
        n = G.degree
        sigma = rng.permutation(n)
        H = PermGroup(n, [tuple(h.tolist()) for h in relabelled(G.generators, sigma)])
        renamed = H.orbitals().colors[np.ix_(sigma, sigma)]
        assert np.array_equal(CoherentConfiguration(renamed).colors,
                              G.orbitals().colors)


def test_orbit_stabilizer_identity_spot_checks():
    rng = np.random.default_rng(0)
    pts = ExteriorPairPoints(8)
    groups = [PermGroup(28, pts.moebius_generators()),
              PermGroup(9, AffinePlanePoints(3).frobenius_group_generators())]
    for G in groups:
        for _ in range(10):
            a = int(rng.integers(0, G.degree))
            b = int(rng.integers(0, G.degree))
            orbit = orbit_of_pair(G, a, b)
            stab = G.stabilizer_prefix((a, b))
            assert len(orbit) * stab.order() == G.order()


def test_stabilizer_prefix_keeps_the_prefix_chain(monkeypatch, hollmann16):
    builds = []
    build_chain = PermGroup._build_chain

    def counted(group):
        builds.append(group.degree)
        return build_chain(group)

    monkeypatch.setattr(PermGroup, "_build_chain", counted)
    assert hollmann16[1].point_stabilizer(0).order() == 2 * 17
    assert len(builds) == 1


def test_stabilizer_prefix_matches_the_rebuilt_stabilizer(hollmann8, hollmann16,
                                                          hollmann32):
    rng = np.random.default_rng(11)
    for G in (hollmann8[1], hollmann16[1], hollmann32[1]):
        n = G.degree
        for points in ((0,), (0, 1), (3, 7, 11)):
            stab = G.stabilizer_prefix(points)
            chain = PermGroup(n, G.generators, base_prefix=points)
            rebuilt = PermGroup(n, chain.strong_generators(len(points)))
            assert stab.order() == rebuilt.order()
            gens = rebuilt.generators
            probes = [identity(n)] + G.generators
            probes += [compose(g, h) for g in gens[:3] for h in gens[:3] + G.generators]
            probes += [tuple(int(x) for x in rng.permutation(n)) for _ in range(3)]
            answers = [stab.contains(p) for p in probes]
            assert answers == [rebuilt.contains(p) for p in probes]
            assert not all(answers)


def test_orbitals_degenerate():
    assert PermGroup(3, []).orbitals().rank == 9
    assert PermGroup(1, []).orbitals().rank == 1
    S3 = PermGroup(3, [(1, 0, 2), (1, 2, 0)])
    assert S3.orbitals().rank == 2


def test_orbitals_passman3(passman_schemes):
    cfg, G, _ = passman_schemes[3]
    assert cfg.degree == 9
    assert cfg.rank == 3
    assert cfg.is_homogeneous()
    vals = [int(cfg.valencies()[s]) for s in range(cfg.rank)
            if not cfg.is_reflexive(s)]
    assert vals == [4, 4]


def test_generators_are_orbital_automorphisms(hollmann8):
    cfg, G = hollmann8
    M = cfg.colors
    for g in G.generators:
        f = np.asarray(g)
        assert np.array_equal(M[np.ix_(f, f)], M)


def test_orbitals_pass_full_validation(hollmann8):
    cfg, _ = hollmann8
    assert cfg.validate("full").passed


def test_galois_correspondence_small_degrees(hollmann8, hollmann16, small8,
                                             passman_schemes):
    from cohcfg.analysis import automorphism_group

    instances = [hollmann8[0], hollmann16[0], small8[0]]
    instances += [passman_schemes[q][0] for q in (3, 5, 7, 9)]
    for cfg in instances:
        aut = automorphism_group(cfg)
        assert aut.group.orbitals().same_partition(cfg)


def cell_painter(G):
    """orbital colors painted one cell at a time, as written before"""
    n = G.degree
    gens = [np.asarray(g, dtype=np.int64) for g in G.generators]
    colors = np.full((n, n), -1, dtype=np.int64)
    color = 0
    for a in range(n):
        for b in range(n):
            if colors[a, b] >= 0:
                continue
            colors[a, b] = color
            fa, fb = np.array([a]), np.array([b])
            while fa.size:
                parts = []
                for g in gens:
                    ia, ib = g[fa], g[fb]
                    fresh = colors[ia, ib] < 0
                    ia, ib = ia[fresh], ib[fresh]
                    colors[ia, ib] = color
                    parts.append((ia, ib))
                fa = np.concatenate([p[0] for p in parts] + [np.empty(0, int)])
                fb = np.concatenate([p[1] for p in parts] + [np.empty(0, int)])
            color += 1
    return colors


def test_row_scanned_painter_matches_cell_painter(hollmann8, hollmann16,
                                                  small8, passman_schemes):
    groups = [PermGroup(40, []),
              PermGroup(12, [tuple((i + 1) % 12 for i in range(12))]),
              hollmann8[1], hollmann16[1], passman_schemes[5][1], small8[1],
              PermGroup(25, AffinePlanePoints(5).frobenius_group_generators())]
    for G in groups:
        expected = CoherentConfiguration(cell_painter(G))
        assert np.array_equal(G.orbitals().colors, expected.colors)


# Reference Schreier-Sims: the tuple chain PermGroup built before its
# levels became numpy rows, frozen here as the oracle for the base, the
# strong generators of every level and every transversal representative.
# The base is the prefix, then the least point moved by a remaining
# generator; transversals grow breadth first, layer by layer in ascending
# order; each level's Schreier generators are sifted one at a time in
# (orbit point, generator) order and the first non-identity residue is
# installed, restarting the check at the level it reached.

def reference_chain(degree, generators, prefix=()):
    one = identity(degree)
    gens = []
    for g in map(tuple, generators):
        if g != one and g not in gens:
            gens.append(g)
    base, levels = list(prefix), [gens]
    for b in base:
        levels.append([g for g in levels[-1] if g[b] == b])
    while levels[-1]:
        base.append(min(i for g in levels[-1] for i in range(degree) if g[i] != i))
        levels.append([g for g in levels[-1] if g[base[-1]] == base[-1]])
    levels.pop()

    def transversal(i):
        trans, frontier = {base[i]: one}, [base[i]]
        while frontier:
            new = []
            for gamma in frontier:
                for g in levels[i]:
                    if g[gamma] not in trans:
                        trans[g[gamma]] = compose(trans[gamma], g)
                        new.append(g[gamma])
            frontier = sorted(new)
        return trans

    def sift(g, start):
        for i in range(start, len(base)):
            rep = trans[i].get(g[base[i]])
            if rep is None:
                return i, g
            g = compose(g, inverse(rep))
        return len(base), g

    def close(i):
        trans[i] = transversal(i)
        for gamma in sorted(trans[i]):
            for g in levels[i]:
                u = compose(compose(trans[i][gamma], g), inverse(trans[i][g[gamma]]))
                j, h = sift(u, i + 1)
                if h == one:
                    continue
                if j == len(base):
                    base.append(min(x for x in range(degree) if h[x] != x))
                    levels.append([])
                    trans.append(None)
                for k in range(i + 1, j + 1):
                    levels[k].append(h)
                    trans[k] = transversal(k)
                return j
        return None

    trans = [transversal(i) for i in range(len(base))]
    i = len(base) - 1
    while i >= 0:
        restart = close(i)
        i = i - 1 if restart is None else restart
    return base, levels, trans


def chain_of(G):
    """(base, strong generators per level, transversal per level) of G."""
    G.order()
    base = G._base
    levels = [G.strong_generators(i) for i in range(len(base))]
    trans = [{int(p): tuple(T[lookup[p]].tolist())
              for p in np.flatnonzero(lookup >= 0)}
             for lookup, T, _ in G._transversals]
    return list(base), levels, trans


def random_corpus():
    """30 seeded groups of degree <= 20: degree 0 and 1, the trivial
    group, repeated and identity generators, full symmetric groups and
    small subgroups generated by short cycles."""
    rng = np.random.default_rng(2024)
    corpus = [(0, []), (1, []), (1, [(0,)]), (6, []),
              (6, [identity(6), identity(6)]),
              (7, [tuple((i + 1) % 7 for i in range(7))] * 2 + [identity(7)])]
    while len(corpus) < 30:
        n = int(rng.integers(2, 21))
        gens = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.4:
                g = [int(x) for x in rng.permutation(n)]
            else:
                g = list(range(n))
                cycle = rng.choice(n, size=int(rng.integers(2, min(n, 4) + 1)),
                                   replace=False).tolist()
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    g[a] = b
            gens.append(tuple(g))
        if rng.random() < 0.3:
            gens += [gens[0], identity(n)]
        corpus.append((n, gens))
    return corpus


def test_chain_matches_reference_chain(monkeypatch, hollmann8, hollmann16,
                                       hollmann32, passman_schemes):
    cases = [(G, prefix) for G in (hollmann8[1], hollmann16[1], hollmann32[1])
             for prefix in ((), (0,), (0, 1))]
    for q, (_, G, _) in passman_schemes.items():
        pts = AffinePlanePoints(q)
        cases += [(G, ()), (PermGroup(len(pts), pts.frobenius_group_generators()), ())]
    cases += [(PermGroup(n, gens), prefix) for n, gens in random_corpus()
              for prefix in ((), (0,))[:1 + (n > 0)]]
    chunks = (perm.CHUNK, 1, 5)
    for G, prefix in cases:
        expected = reference_chain(G.degree, G.generators, prefix)
        # chunking the Schreier generators must not change the chain
        for chunk in chunks[:1 if G.degree > 120 else 3]:
            monkeypatch.setattr(perm, "CHUNK", chunk)
            chain = PermGroup(G.degree, G.generators, base_prefix=prefix)
            assert chain_of(chain) == expected


def test_order_and_membership_match_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation = combinatorics.Permutation
    rng = np.random.default_rng(7)
    for n, gens in random_corpus():
        G = PermGroup(n, gens)
        oracle = combinatorics.PermutationGroup(
            [Permutation(list(g)) for g in gens] or [Permutation(list(range(n)))])
        assert G.order() == oracle.order()
        words = [identity(n)]
        for _ in range(3):
            w = identity(n)
            for k in rng.integers(0, len(gens), size=5) if gens else []:
                w = compose(w, gens[k])
            words.append(w)
        probes = words + [tuple(int(x) for x in rng.permutation(n)) for _ in range(5)]
        for p in probes:
            assert G.contains(p) == oracle.contains(Permutation(list(p)))
        assert all(G.contains(w) for w in words)


def test_scheme_group_orders_match_sympy(hollmann8, hollmann16, hollmann32, small8,
                                         passman_schemes):
    # the constructing groups of the paper's schemes: orders and orders
    # of the stabilizer of point 0
    combinatorics = pytest.importorskip("sympy.combinatorics")
    Permutation = combinatorics.Permutation
    groups = [hollmann8[1], hollmann16[1], hollmann32[1], small8[1],
              *(passman_schemes[q][1] for q in (3, 5, 7, 9))]
    want = [(504, 18), (4080, 34), (32736, 66), (1512, 54), (72, 8), (400, 16),
            (1176, 24), (2592, 32)]
    for G, orders in zip(groups, want):
        oracle = combinatorics.PermutationGroup(
            [Permutation(list(g)) for g in G.generators])
        assert (G.order(), G.point_stabilizer(0).order()) == orders
        assert (oracle.order(), oracle.stabilizer(0).order()) == orders


def test_orbit_layers_span_each_orbit_from_its_least_point():
    rng = np.random.default_rng(7)
    for n in (1, 5, 12, 40):
        for k in (0, 1, 2):
            G = PermGroup(n, [tuple(rng.permutation(n).tolist()) for _ in range(k)])
            least = G.orbit_minima()
            reps, layers = G.orbit_layers()
            assert np.array_equal(reps, np.flatnonzero(least == np.arange(n)))
            reached = set(reps.tolist())
            for points, parents, g in layers:
                assert np.array_equal(np.asarray(G.generators[g])[parents], points)
                assert set(parents.tolist()) <= reached
                assert not reached & set(points.tolist())
                reached |= set(points.tolist())
            assert reached == set(range(n))


def test_orbital_count_is_the_rank_of_the_orbitals():
    # both branches: at most n elements (Burnside), and more
    rng = np.random.default_rng(8)
    small = set()
    for n in (1, 6, 10, 12):
        for k in (0, 1, 2):
            G = PermGroup(n, [tuple(rng.permutation(n).tolist()) for _ in range(k)])
            for H in (G, G.point_stabilizer(0)):
                assert H.orbital_count() == H.orbitals().rank
                small.add(H.order() <= n)
    assert small == {True, False}
    assert PermGroup(12, [tuple(range(1, 12)) + (0,), (1, 0) + tuple(range(2, 12))]
                     ).orbital_count() == 2   # S12, far more than 12 elements
