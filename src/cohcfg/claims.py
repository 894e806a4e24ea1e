"""Named structural claims, checked end to end and emitted as ledger lines.

Each entry re-derives a documented statement about the built schemes and
reports PASS or FAIL with computed witnesses; claim ids are the opaque
registry keys used by the command line ``verify`` subcommand.  The
one-point extension of the large scheme is memoized here for the
duration of the process; `schemes` memoizes the schemes it keeps.
"""

import functools
import inspect
import numbers
import time

import numpy as np

from .analysis import (_require_enumerable, automorphism_group,
                       check_bound_201444a, check_cor_423939b, is_schurian,
                       is_separable_small, matching_graph)
from .cc import algebraic_fusion, induced_color_action
from .errors import UsageError
from .gf import Field
from .perm import PermGroup, perm_order
from .report import VerificationReport
from .schemes import (AffinePlanePoints, ExteriorPairPoints, hollmann_large,
                      hollmann_small, passman_scheme, trace_label_check)
from .wl import extend_points

_REGISTRY = {}


@functools.cache
def large_extension(q):
    """The one-point extension of hollmann_large(q) at point 0, which
    several claims share; the point stabilizer G_0 takes it through the
    group route of `stabilize`."""
    cfg, G = hollmann_large(q)
    return extend_points(cfg, [0], group=G.point_stabilizer(0))


def claim(claim_id):
    def wrap(fn):
        _REGISTRY[claim_id] = fn
        return fn
    return wrap


def known_claims():
    return sorted(_REGISTRY)


def verify_claim(claim_id, **params):
    """Run one registered claim; returns its VerificationReport.

    The parameters must bind to the claim's signature; each takes the
    type of its default, an integer when it has none (not a bool).
    """
    if claim_id not in _REGISTRY:
        raise UsageError(f"unknown claim {claim_id!r}; known: {known_claims()}")
    fn = _REGISTRY[claim_id]
    signature = inspect.signature(fn)
    try:
        bound = signature.bind(**params)
    except TypeError as exc:
        raise UsageError(f"claim {claim_id}: {exc}") from None
    for name, value in bound.arguments.items():
        text = isinstance(signature.parameters[name].default, str)
        if isinstance(value, bool) or not isinstance(value, str if text else numbers.Integral):
            raise UsageError(f"claim {claim_id}: parameter {name}={value!r} is not "
                             f"{'a string' if text else 'an integer'}")
    t0 = time.perf_counter()
    rep = fn(**params)
    rep.seconds = time.perf_counter() - t0
    return rep


# ---------------------------------------------------------------------------

@claim("160520i")
def _large_parameters(q):
    """Large scheme: degree q(q-1)/2, rank q/2, valency q+1, symmetric,
    pseudocyclic."""
    rep = VerificationReport(claim="160520i", params={"q": q})
    cfg, _ = hollmann_large(q)
    rep.require("degree", cfg.degree == q * (q - 1) // 2, cfg.degree)
    rep.require("rank", cfg.rank == q // 2, cfg.rank)
    v = sorted(set(int(x) for s, x in enumerate(cfg.valencies())
                   if not cfg.is_reflexive(s)))
    rep.require("valency", v == [q + 1], v)
    rep.require("symmetric", cfg.is_symmetric())
    ok, k = cfg.is_pseudocyclic()
    rep.require("pseudocyclic", ok and k == q + 1, k)
    return rep


@claim("250720a")
def _stabilizer_orders(q):
    """Point stabilizer of order 2(q+1) whose nontrivial orbits all have
    size q+1."""
    rep = VerificationReport(claim="250720a", params={"q": q})
    cfg, G = hollmann_large(q)
    stab = G.point_stabilizer(0)
    rep.require("stabilizer-order", stab.order() == 2 * (q + 1), stab.order())
    sizes = np.bincount(stab.orbit_minima())[1:]   # 0 is fixed
    sizes = sorted(set(sizes[sizes > 0].tolist()))
    rep.require("orbit-sizes", sizes == [q + 1], sizes)
    return rep


@claim("250720b")
def _aut_orders(q):
    """aut(X) = the constructing group; aut(X_a) its point stabilizer."""
    rep = VerificationReport(claim="250720b", params={"q": q})
    cfg, G = hollmann_large(q)
    if q <= 8:
        aut = automorphism_group(cfg)
        rep.require("aut-order", aut.order == q * (q * q - 1), aut.order)
        rep.witnesses["method"] = aut.method
    xa = large_extension(q)
    aut_a = automorphism_group(xa)
    rep.require("aut-extension-order", aut_a.order == 2 * (q + 1), aut_a.order)
    rep.witnesses["extension-method"] = aut_a.method
    return rep


@claim("250720c")
def _trace_labels(q):
    return trace_label_check(q)


@claim("4151533a")
def _matching_graph_connected(d):
    """Connectivity of the trace-form graph; the d = 3 instance is
    computed like the rest and reported as found."""
    rep = VerificationReport(claim="4151533a", params={"d": d})
    graph, connected, components = matching_graph(d)
    rep.witnesses["vertices"] = len(graph.vertices)
    rep.witnesses["edges"] = graph.edge_count
    rep.witnesses["components"] = len(components)
    rep.require("connected", connected)
    return rep


@claim("170520w1")
def _matchings(q):
    """Every ordered pair of non-singleton fibers of a one-point
    extension admits a matching; where the trace form vanishes the
    matching is re-derived inside the labeled relation."""
    rep = VerificationReport(claim="170520w1", params={"q": q})
    label = trace_label_check(q)   # refuses an unsupported q before any work
    cfg, _ = hollmann_large(q)
    xa = large_extension(q)
    fibers = xa.fibers()
    nonsingleton = [i for i, f in enumerate(fibers) if len(f) > 1]
    missing = []
    for i in nonsingleton:
        for j in nonsingleton:
            if not xa.matchings_between(i, j):
                missing.append((i, j))
    rep.require("all-fiber-pairs-matched", not missing,
                witness=missing or f"{len(nonsingleton)}x{len(nonsingleton)}")

    # labeled witness route: fibers are alpha s_x; for Tr(x y) = 0 the
    # relation s_{x+y} cut down to fiber_x x fiber_y is itself a matching
    # and a relation of the extension
    if label.passed:
        field = Field(2, q.bit_length() - 1)
        bij = label.witnesses["bijection"]
        derived, checked = 0, 0
        ok = True
        M = cfg.colors
        E = xa.colors
        for x, sx in bij.items():
            for y, sy in bij.items():
                if x == 0 or y == 0 or x == y:
                    continue
                if field.trace(field.mul(x, y)) != 0:
                    continue
                checked += 1
                z = field.add(x, y)
                sz = bij[z]
                fx = np.flatnonzero(M[0] == sx)
                fy = np.flatnonzero(M[0] == sy)
                block = M[np.ix_(fx, fy)] == sz
                bijective = (block.sum(axis=0) == 1).all() and \
                            (block.sum(axis=1) == 1).all()
                closed = _is_relation_of(E, fx, fy, block)
                if bijective and closed:
                    derived += 1
                else:
                    ok = False
        rep.require("trace-zero-witnesses", ok,
                    witness=f"{derived}/{checked}")
    return rep


def _is_relation_of(ext_colors, rows, cols, block):
    """The cell set is a union of extension colors."""
    sub = ext_colors[np.ix_(rows, cols)]
    inside = set(np.unique(sub[block]).tolist())
    outside = set(np.unique(sub[~block]).tolist()) if (~block).any() else set()
    return not (inside & outside)


def _first_fiber(q):
    """The one-point extension X_a of the large scheme, the index and the
    points of its first non-singleton fiber, and X_a restricted to it."""
    xa = large_extension(q)
    fibers = xa.fibers()
    i = next(i for i, f in enumerate(fibers) if len(f) > 1)
    return xa, i, fibers[i], xa.restriction(fibers[i].tolist())


@claim("250720f")
def _restriction_scheme(q):
    """(X_a) restricted to one nontrivial fiber: schurian, separable,
    automorphisms a dihedral group of order 2(q+1) containing a regular
    cycle, and any one-point extension partly regular."""
    rep = VerificationReport(claim="250720f", params={"q": q})
    *_, Y = _first_fiber(q)
    rep.require("restriction-degree", Y.degree == q + 1, Y.degree)
    autY = automorphism_group(Y)
    rep.require("aut-order", autY.order == 2 * (q + 1), autY.order)
    regular_cycle = any(
        perm_order(g) == q + 1 and all(g[i] != i for i in range(len(g)))
        for g in autY.group.elements())
    rep.require("regular-cycle", regular_cycle)
    rep.require("schurian", is_schurian(Y).passed)
    rep.require("separable", is_separable_small(Y).passed)
    ext = extend_points(Y, [0])
    rep.require("one-point-extension-partly-regular",
                ext.is_partly_regular()[0])
    return rep


@claim("180520i")
def _restriction_isomorphism(q):
    """When one fiber reaches every fiber by a valency-1 relation, the
    restriction map on automorphisms is a group isomorphism: orders
    agree and distinct automorphisms restrict distinctly."""
    rep = VerificationReport(claim="180520i", params={"q": q})
    xa, delta_idx, delta, Y = _first_fiber(q)
    source, target = xa.fiber_colors()
    refl = xa.reflexive_colors()
    reached = target[(source == refl[delta_idx]) & (xa.valencies() == 1)]
    rep.require("hypothesis", bool(np.isin(refl, reached).all()))
    aut_full = automorphism_group(xa)
    aut_res = automorphism_group(Y)
    rep.require("orders-equal", aut_full.order == aut_res.order,
                (aut_full.order, aut_res.order))
    pos = {int(p): i for i, p in enumerate(delta)}
    restricted = set()
    for g in aut_full.group.elements():
        rg = tuple(pos[g[int(p)]] for p in delta)
        restricted.add(rg)
    rep.require("restriction-injective", len(restricted) == aut_full.order,
                len(restricted))
    return rep


@claim("030620i")
def _extension_schurian_separable(q):
    """One-point extensions of the large scheme are schurian and
    separable: schurity directly, separability through the restriction
    route; the two-dimensional consequence is recorded as an inference."""
    rep = VerificationReport(claim="030620i", params={"q": q})
    xa, _, _, Y = _first_fiber(q)
    _require_enumerable(Y)      # the restriction route's guard, before any search
    rep.require("extension-schurian", is_schurian(xa).passed)
    sub = _restriction_scheme(q)
    rep.require("restriction-chain", sub.passed)
    hyp = _restriction_isomorphism(q)
    rep.require("restriction-isomorphism", hyp.passed)
    yb = extend_points(Y, [0])
    rep.require("double-restricted-extension-partly-regular",
                yb.is_partly_regular()[0])
    if rep.passed:
        rep.witnesses["extension-separable"] = "via restriction lemma"
        rep.witnesses["separability"] = "s(X)<=2 by Lemma 030620d"
    return rep


@claim("270520i")
def _small_scheme_claims(q):
    """Fusion of the large scheme by the Frobenius color action equals
    the extended-group orbitals; parameters and the fused intersection
    bound m_t <= 4 d^2 are checked."""
    d = q.bit_length() - 1
    rep = VerificationReport(claim="270520i", params={"q": q})
    small, _ = hollmann_small(q)  # constructor asserts route equality
    rep.witnesses["routes"] = "orbital=fusion"
    if d == 3:
        rep.require("trivial", small.is_trivial_scheme(), small.rank)
        return rep
    rep.require("rank", small.rank == 1 + (small.degree - 1) // (d * (q + 1)),
                small.rank)
    ok, k = small.is_pseudocyclic()
    rep.require("pseudocyclic", ok and k == d * (q + 1), k)
    large, _ = hollmann_large(q)
    m_large = max(large.m_t(t) for t in range(large.rank)
                  if not large.is_reflexive(t))
    rep.require("large-m<=4", m_large <= 4, m_large)
    m_small = max(small.m_t(t) for t in range(small.rank)
                  if not small.is_reflexive(t))
    rep.require("fused-m<=4d^2", m_small <= 4 * d * d, m_small)
    return rep


@claim("280520a")
def _small_two_point_extensions(q=32):
    """Two-point extensions of the small scheme, one representative pair
    per color, are partly regular."""
    rep = VerificationReport(claim="280520a", params={"q": q})
    _require_partly_regular_pairs(rep, *hollmann_small(q))
    return rep


@claim("300520a")
def _passman_claims(q):
    """Monomial affine scheme: pseudocyclic of valency 2(q-1); it is the
    fusion of its one-parameter subscheme under the signed-permutation
    color action; the claimed small intersection bound is re-computed."""
    rep = VerificationReport(claim="300520a", params={"q": q})
    cfg, G, Y = passman_scheme(q)
    ok, k = cfg.is_pseudocyclic()
    rep.require("pseudocyclic", ok and k == 2 * (q - 1), k)
    rep.witnesses["fusion-identity"] = "holds"  # asserted in the constructor
    u = int(Y.colors[0, q + 1])
    t = int(cfg.colors[0, q + 1])
    mu = Y.m_t(u)
    mt_all = {s: cfg.m_t(s) for s in range(cfg.rank) if not cfg.is_reflexive(s)}
    rep.witnesses["m_u"] = mu
    rep.witnesses["m_t"] = mt_all[t]
    rep.witnesses["min_m_t"] = min(mt_all.values())
    rep.require("designated-m_u-is-1", mu == 1)
    rep.require("some-color-m_t-at-most-4", min(mt_all.values()) <= 4)
    return rep


@claim("310520d")
def _passman_two_point_extensions(q):
    """Two-point extensions of the monomial affine scheme, one
    representative pair per color, are partly regular; the bound route's
    status is recorded from the computed intersection maxima."""
    rep = VerificationReport(claim="310520d", params={"q": q})
    cfg, G, Y = passman_scheme(q)
    t0 = int(cfg.colors[0, q + 1])
    bound = check_cor_423939b(cfg, t0)
    rep.witnesses["bound-route"] = bound.witnesses["hypothesis"]
    rep.witnesses["m_t"] = bound.witnesses["m_t"]
    _require_partly_regular_pairs(rep, cfg, G)
    return rep


def _require_partly_regular_pairs(rep, cfg, G):
    """Extend the scheme cfg of the group G at the first pair (a, b) of
    each irreflexive color and require the extension partly regular.
    G_{a,b} takes each extension through the group route; it is read off
    G_a, which is built once per a.  Each extension is used once and not
    memoized: with up to n^2 / 2 classes, its class table is about as
    large as its color matrix."""
    point_stabilizers = {}
    for t in range(cfg.rank):
        if not cfg.is_reflexive(t):
            a, b = cfg.first_pair(t)
            if a not in point_stabilizers:
                point_stabilizers[a] = G.point_stabilizer(a)
            pair_stabilizer = point_stabilizers[a].stabilizer_prefix((b,))
            ext = extend_points(cfg, (a, b), group=pair_stabilizer)
            rep.require(f"color-{t}", ext.is_partly_regular()[0],
                        witness=(a, b, ext.rank))


@claim("201444a")
def _bound_corpus(seed=0, count=100):
    """Random small orbital configurations and their random one-point
    extensions: no instance beats the (2k-1)c >= n bound, and every
    partly regular instance certifies schurian and separable through
    the fast path."""
    if count <= 0:
        raise UsageError("count must be positive")
    if seed < 0:
        raise UsageError("seed must be nonnegative")
    rep = VerificationReport(claim="201444a", params={"seed": seed, "count": count})
    rng = np.random.default_rng(seed)
    checked = 0
    fast_path = 0
    for i in range(count):
        n = int(rng.integers(4, 13))
        k = int(rng.integers(1, 3))
        gens = [tuple(int(x) for x in rng.permutation(n)) for _ in range(k)]
        G = PermGroup(n, gens)
        cfg = G.orbitals()
        ext = extend_points(cfg, [int(rng.integers(0, n))])
        for inst in (cfg, ext):
            bound = check_bound_201444a(inst)
            if not bound.passed:
                rep.require(f"instance-{i}", False, witness=bound.witnesses)
                return rep
            checked += 1
            if inst.is_partly_regular()[0]:
                aut = automorphism_group(inst)
                if aut.method not in ("partly-regular-fastpath",
                                      "known-group-confirmed"):
                    rep.require("fast-path-used", False, witness=aut.method)
                    return rep
                if not is_schurian(inst).passed or \
                   not is_separable_small(inst).passed:
                    rep.require(f"certify-{i}", False)
                    return rep
                fast_path += 1
    rep.witnesses["instances"] = checked
    rep.witnesses["partly_regular_certified"] = fast_path
    rep.require("bound-universal", True)
    return rep


@claim("411958b")
def _fusion_bound(family="small", seed=0, trials=1000):
    """Fused intersection numbers obey c_{r s}^{t, fused} <= m_t |Phi|^2,
    spot-checked on seeded random triples of the base scheme."""
    if trials <= 0:
        raise UsageError("trials must be positive")
    if seed < 0:
        raise UsageError("seed must be nonnegative")
    rep = VerificationReport(claim="411958b",
                             params={"family": family, "seed": seed,
                                     "trials": trials})
    if family == "small":
        base, _ = hollmann_large(32)
        pts = ExteriorPairPoints(32)
        gens = [induced_color_action(base, pts.frobenius_permutation())]
    elif family == "passman":
        q = 13
        _, _, base = passman_scheme(q)
        plane = AffinePlanePoints(q)
        gens = [induced_color_action(base, g)
                for g in plane.signed_swap_generators()]
    else:
        raise UsageError("family must be 'small' or 'passman'")
    fused, fmap = algebraic_fusion(base, gens)
    phi_order = fmap.order
    phi_sq = phi_order ** 2
    rep.witnesses["phi_order"] = phi_order
    base_tensor = base.tensor().values
    fused_tensor = fused.tensor().values
    into = np.asarray(fmap.color_to_fused)
    rng = np.random.default_rng(seed)
    irreflexive = [t for t in range(base.rank) if not base.is_reflexive(t)]
    largest = 0
    for _ in range(trials):
        r = int(rng.integers(0, base.rank))
        s = int(rng.integers(0, base.rank))
        t = irreflexive[int(rng.integers(0, len(irreflexive)))]
        m_t = int(base_tensor[t].max())
        fused_value = int(fused_tensor[into[t], into[r], into[s]])
        if fused_value > m_t * phi_sq:
            rep.require("bound", False, witness=(r, s, t, fused_value, m_t))
            return rep
        largest = max(largest, fused_value)
    rep.require("bound", True)
    rep.witnesses["largest_fused_value"] = largest
    return rep
