import itertools

import numpy as np
import pytest

from cohcfg import analysis, claims, errors, wl
from cohcfg.analysis import (automorphism_group, base_number, check_bound_201444a,
                             check_cor_423939b, find_inducing_bijection,
                             algebraic_automorphisms, is_schurian,
                             is_separable_small, matching_graph)
from cohcfg.claims import known_claims, verify_claim
from cohcfg.errors import ResourceLimitError, UsageError
from cohcfg.perm import PermGroup
from cohcfg.wl import extend_points

from test_cc import thin_scheme, trivial_scheme
from test_wl import ParityWeights, dihedral, record_stabilize


def automorphism_count_oracle(cfg):
    """Number of automorphisms: the distinct leaves of the doubled search
    without generator pruning.  Its time grows with the group order, so
    it is for small groups only."""
    search = analysis._DoubledSearch(cfg)
    return len({tuple(f.tolist()) for f in search.leaves(search.root)})


def networkx_automorphism_count(nx, cfg):
    """Number of automorphisms as VF2 counts them on the colored complete
    digraph: node colors from the diagonal, edge colors off it."""
    M = cfg.colors.tolist()
    G = nx.DiGraph()
    G.add_nodes_from((a, {"c": row[a]}) for a, row in enumerate(M))
    G.add_edges_from((a, b, {"c": c}) for a, row in enumerate(M)
                     for b, c in enumerate(row) if a != b)
    same = lambda x, y: x["c"] == y["c"]
    matcher = nx.algorithms.isomorphism.DiGraphMatcher(G, G, node_match=same,
                                                       edge_match=same)
    return sum(1 for _ in matcher.isomorphisms_iter())


def test_matching_graph_d3_is_edgeless():
    graph, connected, components = matching_graph(3)
    assert len(graph.vertices) == 3
    assert graph.edge_count == 0
    assert not connected
    assert len(components) == 3


def test_matching_graph_d4_d5_connected():
    graph, connected, components = matching_graph(4)
    assert len(graph.vertices) == 7
    assert graph.edge_count == 9
    assert connected
    _, connected5, _ = matching_graph(5)
    assert connected5


def test_matching_graph_guard():
    with pytest.raises(UsageError):
        matching_graph(2)


def test_aut_discrete_and_trivial():
    disc = PermGroup(4, []).orbitals()
    aut = automorphism_group(disc)
    assert aut.order == 1
    triv = trivial_scheme(6)
    aut = automorphism_group(triv)
    assert aut.order == 720
    assert aut.group.order() == 720   # chain order agrees with the hint
    assert aut.method == "known-group-confirmed"


def test_aut_pentagon_matches_oracle():
    penta = dihedral(5).orbitals()
    aut = automorphism_group(penta)
    assert aut.order == 10
    assert aut.method == "individualization-refinement"
    assert automorphism_count_oracle(penta) == 10


def test_aut_generators_are_sound(hollmann8):
    cfg, _ = hollmann8
    aut = automorphism_group(cfg)
    M = cfg.colors
    for g in aut.generators:
        f = np.asarray(g)
        assert np.array_equal(M[np.ix_(f, f)], M)


def test_aut_hollmann8(hollmann8):
    cfg, G = hollmann8
    aut = automorphism_group(cfg)
    assert aut.order == 504
    for g in G.generators:
        assert aut.group.contains(g)


def test_unpruned_oracle_matches_networkx(hollmann8, passman_schemes):
    # an isomorphism counter that shares no code with the doubled search;
    # hollmann_large(8) itself is left out, VF2 takes tens of seconds there
    nx = pytest.importorskip("networkx")
    p3 = passman_schemes[3][0]
    cases = [(dihedral(5).orbitals(), 10), (p3, 72),
             (extend_points(hollmann8[0], [0]), 18),
             (extend_points(p3, [0, 1]), 2)]
    for cfg, order in cases:
        assert automorphism_count_oracle(cfg) == order
        assert networkx_automorphism_count(nx, cfg) == order


def test_aut_hollmann8_matches_unpruned_oracle(hollmann8):
    cfg, _ = hollmann8
    assert automorphism_count_oracle(cfg) == 504


def test_aut_passman3_matches_oracle(passman_schemes):
    cfg, G, _ = passman_schemes[3]
    aut = automorphism_group(cfg)
    assert aut.order == automorphism_count_oracle(cfg)
    assert aut.order % G.order() == 0


def test_aut_extension_orders(hollmann8):
    cfg, _ = hollmann8
    xa = extend_points(cfg, [0])
    aut = automorphism_group(xa)
    assert aut.order == 18


def test_aut_partly_regular_fast_path(passman_schemes):
    cfg, _, _ = passman_schemes[3]
    ext = extend_points(cfg, [0, 1])
    assert ext.is_partly_regular()[0]
    aut = automorphism_group(ext)
    assert aut.method == "partly-regular-fastpath"
    assert aut.order == automorphism_count_oracle(ext)


def reference_partly_regular_automorphisms(cfg, alpha):
    """The seed-by-seed loop `_partly_regular_automorphisms` ran before,
    frozen as the reference for its list and order."""
    M = cfg.colors
    n = cfg.degree
    row = M[alpha]
    out = []
    for seed in range(n):
        target = M[seed]
        pos = {}
        ok = True
        for b, s in enumerate(target.tolist()):
            if s in pos:
                pos[s] = None
            else:
                pos[s] = b
        f = np.empty(n, dtype=np.int64)
        for b in range(n):
            p = pos.get(int(row[b]))
            if p is None:
                ok = False
                break
            f[b] = p
        if not ok or len(set(f.tolist())) != n:
            continue
        if analysis._verify_automorphism(cfg, f):
            out.append(tuple(int(x) for x in f))
    return out


def test_partly_regular_automorphisms_match_the_reference_loop(passman_schemes):
    # the random orbital configurations and one-point extensions of the
    # 201444a claim at seed 0, and two-point extensions of passman(3), (5)
    rng = np.random.default_rng(0)
    corpus = []
    for _ in range(100):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 3))
        gens = [tuple(int(x) for x in rng.permutation(n)) for _ in range(k)]
        cfg = PermGroup(n, gens).orbitals()
        corpus += [cfg, extend_points(cfg, [int(rng.integers(0, n))])]
    for q in (3, 5):
        cfg = passman_schemes[q][0]
        corpus += [extend_points(cfg, [0, b]) for b in range(1, cfg.degree, q)]
    regular = [(cfg, pts) for cfg in corpus
               for flag, pts in [cfg.is_partly_regular()] if flag]
    assert len(regular) >= 100
    for cfg, pts in regular:
        for alpha in {pts[0], pts[-1]}:
            got = analysis._partly_regular_automorphisms(cfg, alpha)
            assert got == reference_partly_regular_automorphisms(cfg, alpha)


def test_aut_generic_guard(monkeypatch, passman_schemes):
    big = trivial_scheme(200)
    # trivial scheme takes the symmetric-group path even at this degree
    assert automorphism_group(big).order > 0
    cfg, group, _ = passman_schemes[13]   # degree 169, not partly regular
    assert automorphism_group(cfg).order == group.order() == 8112
    # a budget just below the doubled structure on 338 points
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 338 ** 2 * wl._CELL_BYTES - 1)
    with pytest.raises(ResourceLimitError, match="stabilize on 338 points"):
        automorphism_group(cfg)


def test_schurian(hollmann8, passman_schemes):
    assert is_schurian(hollmann8[0]).passed
    assert is_schurian(passman_schemes[3][0]).passed
    xa = extend_points(hollmann8[0], [0])
    assert is_schurian(xa).passed
    delta = [f for f in xa.fibers() if len(f) > 1][0]
    assert is_schurian(xa.restriction(delta.tolist())).passed


def test_algebraic_automorphisms_trivial_scheme():
    triv = trivial_scheme(9)
    assert algebraic_automorphisms(triv) == [(0, 1)]


# Reference enumeration: the triple-loop backtrack algebraic_automorphisms
# ran before `tensor_bijections`, frozen here as the oracle for the list
# and its order.  Color images are tried in id order; a partial
# assignment must respect reflexivity, valencies, the transpose pairing
# and every triple that involves the newest color.  Colors 0..k are all
# assigned at step k, so the old loop's tests for unassigned entries are
# left out.

def reference_algebraic_automorphisms(cfg):
    r = cfg.rank
    values = cfg.tensor().values
    v = cfg.valencies()
    tmap = cfg.transpose_map()
    refl = [cfg.is_reflexive(s) for s in range(r)]
    out = []
    image = [-1] * r
    used = [False] * r

    def ok(k):
        for a in range(k + 1):
            ta = int(tmap[a])
            if ta <= k and image[ta] != int(tmap[image[a]]):
                return False
        for a in range(k + 1):
            for b in range(k + 1):
                for c in range(k + 1):
                    if k in (a, b, c) and \
                       values[c, a, b] != values[image[c], image[a], image[b]]:
                        return False
        return True

    def backtrack(k):
        if k == r:
            out.append(tuple(image))
            return
        for cand in range(r):
            if used[cand] or refl[k] != refl[cand] or v[k] != v[cand]:
                continue
            image[k] = cand
            used[cand] = True
            if ok(k):
                backtrack(k + 1)
            image[k] = -1
            used[cand] = False

    backtrack(0)
    return out


def seeded_corpus(max_rank, count, seed):
    """Orbital configurations of relabelled cyclic, dihedral and random
    groups on 4..12 points, and their one-point extensions, up to the
    given rank."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(4, 13))
        cycle = np.roll(np.arange(n), -int(rng.integers(1, n)))
        flip = -np.arange(n) % n
        base = [[cycle, flip], [cycle], [rng.permutation(n)]][len(out) % 3]
        relabel = rng.permutation(n)
        gens = []
        for g in base:
            h = np.empty(n, dtype=np.int64)
            h[relabel] = relabel[g]
            gens.append(tuple(h.tolist()))
        cfg = PermGroup(n, gens).orbitals()
        ext = extend_points(cfg, [int(rng.integers(0, n))])
        out += [c for c in (cfg, ext) if c.rank <= max_rank]
    return out[:count]


def test_algebraic_automorphisms_match_the_reference_backtrack(
        monkeypatch, hollmann8, passman_schemes):
    monkeypatch.setattr(analysis, "SEPARABILITY_RANK_LIMIT", 13)
    xa = extend_points(hollmann8[0], [0])
    delta = [f for f in xa.fibers() if len(f) > 1][0]
    named = [hollmann8[0], xa.restriction(delta.tolist()), trivial_scheme(5),
             thin_scheme(7), dihedral(6).orbitals(), passman_schemes[3][0],
             passman_schemes[3][2], passman_schemes[5][0]]
    corpus = named + seeded_corpus(13, 30, seed=3)
    assert max(cfg.rank for cfg in corpus) == 13
    for cfg in corpus:
        got = algebraic_automorphisms(cfg)
        assert got == reference_algebraic_automorphisms(cfg)
        assert got == sorted(got) and tuple(range(cfg.rank)) in got
    assert len(algebraic_automorphisms(thin_scheme(7))) == 6


def test_algebraic_automorphisms_match_brute_force_permutations():
    # independent of any search: every permutation of the colors that
    # leaves the tensor unchanged, tried one by one
    corpus = [trivial_scheme(4), thin_scheme(6), dihedral(5).orbitals()]
    corpus += seeded_corpus(7, 20, seed=5)
    assert max(cfg.rank for cfg in corpus) == 7
    for cfg in corpus:
        values = cfg.tensor().values
        brute = [p for p in itertools.permutations(range(cfg.rank))
                 if np.array_equal(values[np.ix_(p, p, p)], values)]
        assert algebraic_automorphisms(cfg) == brute


def test_separable_trivial_and_partly_regular(passman_schemes):
    rep = is_separable_small(trivial_scheme(9))
    assert rep.passed
    cfg, _, _ = passman_schemes[3]
    ext = extend_points(cfg, [0, 1])
    rep = is_separable_small(ext)
    assert rep.passed
    assert rep.witnesses["route"] == "partly-regular"


def test_separable_hollmann8(hollmann8):
    rep = is_separable_small(hollmann8[0])
    assert rep.passed
    assert rep.witnesses["route"] == "aaut-enumeration"
    assert rep.witnesses["aaut_order"] >= 1


def test_separability_guard(passman_schemes):
    cfg, _, _ = passman_schemes[5]   # rank 4
    assert is_separable_small(cfg).passed
    big, _, _ = passman_schemes[9]   # degree 81, rank 6: one of 120 fails
    rep = is_separable_small(big)
    assert not rep.passed
    assert rep.witnesses["aaut_order"] == 120
    assert rep.failures == [("induced", (0, 1, 2, 4, 3, 5))]
    _, _, frob = passman_schemes[9]   # rank 11 exceeds the rank guard
    assert frob.rank == 11 and not frob.is_partly_regular()[0]
    with pytest.raises(ResourceLimitError, match="rank 11 > 10"):
        is_separable_small(frob)


def test_find_inducing_bijection_identity(hollmann8):
    cfg, _ = hollmann8
    ident = tuple(range(cfg.rank))
    f = find_inducing_bijection(cfg, ident)
    assert f is not None
    assert np.array_equal(cfg.colors[np.ix_(f, f)], cfg.colors)


def test_bound_201444a(hollmann8):
    cfg, _ = hollmann8
    rep = check_bound_201444a(cfg)
    assert rep.passed
    assert rep.witnesses["k"] == 28 and rep.witnesses["c"] == 8
    disc = PermGroup(6, []).orbitals()
    assert check_bound_201444a(disc).passed   # partly regular, vacuous
    xa = extend_points(cfg, [0])
    assert check_bound_201444a(xa).passed


def test_cor_423939b_hypothesis_met(hollmann16):
    cfg, _ = hollmann16
    t = next(s for s in range(cfg.rank) if not cfg.is_reflexive(s))
    rep = check_cor_423939b(cfg, t)
    assert rep.witnesses["m_t"] <= 4
    assert rep.witnesses["hypothesis"] == "met"
    assert rep.passed


def test_cor_423939b_hypothesis_not_met(passman_schemes):
    cfg, _, _ = passman_schemes[5]
    t = int(cfg.colors[0, 6])
    rep = check_cor_423939b(cfg, t)
    assert rep.witnesses["hypothesis"] == "not-met"
    assert rep.passed   # hypothesis failure is not a claim failure
    # q = 13: the computed m_t also leaves the hypothesis unmet
    cfg13, _, _ = passman_schemes[13]
    t13 = int(cfg13.colors[0, 14])
    rep13 = check_cor_423939b(cfg13, t13)
    assert rep13.witnesses["m_t"] == 7
    assert rep13.witnesses["hypothesis"] == "not-met"


def test_base_number_degenerate():
    disc = PermGroup(4, []).orbitals()
    assert base_number(disc, "greedy") == 0
    assert base_number(disc, "exact") == 0
    assert base_number(thin_scheme(6), "exact") == 1
    with pytest.raises(UsageError):
        base_number(disc, "fast")


def test_base_number_pinned_values(hollmann8, passman_schemes):
    assert base_number(hollmann8[0], "exact") == 3
    assert base_number(passman_schemes[3][0], "exact") == 3
    assert base_number(passman_schemes[5][0], "exact") == 3
    assert base_number(hollmann8[0], "greedy") >= 3


def test_base_number_guard(monkeypatch, hollmann32):
    # the search's doubled structure on 992 points exceeds this budget;
    # its refusal propagates instead of a search without the group
    monkeypatch.setattr(errors, "MEMORY_BUDGET", 2 * 496 ** 2 * wl._CELL_BYTES)
    with pytest.raises(ResourceLimitError, match="stabilize on 992 points"):
        base_number(hollmann32[0], "exact")


def test_claim_registry_surface():
    assert "310520d" in known_claims()
    with pytest.raises(UsageError):
        verify_claim("no-such-claim")
    rep = verify_claim("160520i", q=8)
    assert rep.passed
    line = rep.ledger_line()
    assert line.startswith("CLAIM 160520i q=8 PASS")


def test_claim_4151533a_reports_computed_result():
    assert not verify_claim("4151533a", d=3).passed
    assert verify_claim("4151533a", d=4).passed


def test_claim_passman_m_values_recorded(passman_schemes):
    rep3 = verify_claim("300520a", q=3)
    assert rep3.passed
    assert rep3.witnesses["m_u"] == 1
    rep5 = verify_claim("300520a", q=5)
    assert not rep5.passed          # the stated m_u = 1 fails: computed 2
    assert rep5.witnesses["m_u"] == 2
    assert rep5.witnesses["m_t"] == 4


def test_claim_170520w1_checks_q_before_building(monkeypatch):
    def no_work(*args):
        raise AssertionError("the claim built a scheme before checking q")

    monkeypatch.setattr(claims, "hollmann_large", no_work)
    monkeypatch.setattr(claims, "extend_points", no_work)
    with pytest.raises(UsageError):
        verify_claim("170520w1", q=64)


def test_claim_030620i_checks_the_restriction_rank_first(monkeypatch):
    # the rank-17 restriction at q=32 trips the enumeration guard, which
    # is checked before the schurity search on the 496-point extension
    def no_work(*args):
        raise AssertionError("the claim searched before checking the rank")

    monkeypatch.setattr(claims, "is_schurian", no_work)
    with pytest.raises(ResourceLimitError, match="rank 17 > 10"):
        verify_claim("030620i", q=32)


def test_claim_fusion_bound():
    assert verify_claim("411958b", family="passman", trials=200).passed


def test_aut_search_builds_at_most_one_stabilizer_chain(monkeypatch, hollmann16):
    # the generators found so far fix the branch prefix pointwise, so the
    # orbit pruning needs their orbits only, not a stabilizer chain
    builds = []
    build_chain = PermGroup._build_chain

    def counted(group):
        builds.append(group.degree)
        return build_chain(group)

    monkeypatch.setattr(PermGroup, "_build_chain", counted)
    aut = automorphism_group(hollmann16[0])
    assert len(builds) <= 1
    assert aut.order == 16 * 255


def test_search_needs_no_coherence_certificate(monkeypatch, hollmann8,
                                               hollmann16):
    # search states only have to be invariant; leaves are verified cell
    # by cell, so the exact certificate never runs below the search
    cfg8 = hollmann8[0]
    phi = algebraic_automorphisms(cfg8)[-1]
    assert phi != tuple(range(cfg8.rank))

    def no_certificate(M):
        raise AssertionError("the search ran the coherence certificate")

    monkeypatch.setattr(wl, "_is_coherent", no_certificate)
    assert automorphism_group(hollmann16[0]).order == 16 * 255
    assert automorphism_count_oracle(cfg8) == 504
    f = np.asarray(find_inducing_bijection(cfg8, phi))
    assert np.array_equal(cfg8.colors[np.ix_(f, f)], np.asarray(phi)[cfg8.colors])


def fiber_labels(c, r):
    values, fiber = np.unique(np.diagonal(c), return_inverse=True)
    return fiber, values.size


def test_search_answers_survive_hash_collisions(monkeypatch, hollmann8,
                                                hollmann16, passman_schemes):
    cfgs = [passman_schemes[3][0], passman_schemes[5][0], hollmann8[0],
            hollmann16[0]]
    # one hash whose weights, 1 and 2 by the parity of the color id, are
    # the same in every round collides often, and point labels that keep
    # only the fibers collide on every multiset
    real_round = wl._hash_round
    monkeypatch.setattr(wl, "_MIX", wl._MIX[:1])
    monkeypatch.setattr(wl, "_hash_round", lambda M, r, rng, *route:
                        real_round(M, r, ParityWeights(), *route))
    monkeypatch.setattr(wl, "_point_labels", fiber_labels)
    calls = record_stabilize(monkeypatch, analysis)
    # the orders and the oracle count without collisions
    assert [automorphism_group(cfg).order for cfg in cfgs] == [72, 400, 504, 4080]
    assert automorphism_count_oracle(cfgs[0]) == 72
    monkeypatch.undo()
    # the collisions were real: some search states were coarser than
    # the closure of their input
    assert any(out.max() < wl.stabilize(init).max() for init, out in calls)
