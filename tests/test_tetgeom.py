"""Single-tetrahedron kernel: arcs, angles, Jacobians, volume, oracle.

The hexagon/triangle pipeline that the vertex-Gram cofactor map replaced is
kept here as a reference, with its two-stage Jacobian.  mpmath evaluates
the same cofactors at 60 digits as the accuracy oracle.
"""

import math

import mpmath
import numpy as np
import pytest

from hyperideal import propsuite, tetgeom
from hyperideal.errors import InadmissibleShapeError
from hyperideal.metric import evaluate
from hyperideal.triangulation import EDGE_VERTEX_PAIRS, OPPOSITE_EDGE, edge_index

from conftest import XSTAR, sample_admissible, schlafli_leg

REG1 = np.ones(6)


def regular_angle(x):
    return math.acos(math.cosh(x) / (2.0 * math.cosh(x) - 1.0))


def _hexagon_tables():
    arc = {vf: i for i, vf in enumerate(tetgeom.ARC_VERTEX_FACE)}
    arc_edges = []
    for v, f in tetgeom.ARC_VERTEX_FACE:
        j, k = [w for w in range(4) if w not in (v, f)]
        arc_edges.append([edge_index(v, j), edge_index(v, k), edge_index(j, k)])
    # per edge and endpoint side: the two arcs adjacent to the angle and
    # the arc opposite it, all in the triangle at that endpoint
    corner = np.zeros((3, 6, 2), dtype=int)
    for e, (v, w) in enumerate(EDGE_VERTEX_PAIRS):
        u1, u2 = [z for z in range(4) if z not in (v, w)]
        for s, (p, q) in enumerate(((v, w), (w, v))):
            corner[:, e, s] = arc[(p, u1)], arc[(p, u2)], arc[(p, q)]
    return np.array(arc_edges).T, corner


_ARC_E, _CORNER = _hexagon_tables()


def hexagon_reference(x):
    """Angles (..., 6) and d(angles)/d(lengths) (..., 6, 6) of the hexagon
    pipeline: 12 arcs, the triangle cosine law at both ends of every edge,
    the two endpoint angles averaged; the Jacobian is d(angles)/d(arcs)
    times d(arcs)/d(lengths)."""
    ia, ib, ic = _ARC_E
    ch, sh = np.cosh(x), np.sinh(x)
    coth = ch / sh
    u = coth[..., ia] * coth[..., ib] + ch[..., ic] / (sh[..., ia] * sh[..., ib])
    su = np.sqrt(u * u - 1.0)
    f = 1.0 / su
    T = np.zeros(x.shape[:-1] + (12, 6))
    rows = np.arange(12)
    T[..., rows, ia] = f * (coth[..., ib] - u * coth[..., ia])
    T[..., rows, ib] = f * (coth[..., ia] - u * coth[..., ib])
    T[..., rows, ic] = f * (sh[..., ic] / (sh[..., ia] * sh[..., ib]))
    ends, D = [], []
    rows = np.arange(6)
    for b, c, o in np.moveaxis(_CORNER, -1, 0):
        R = (u[..., b] * u[..., c] - u[..., o]) / (su[..., b] * su[..., c])
        ends.append(np.arccos(R))
        g = -1.0 / np.sqrt(1.0 - R * R)
        Dside = np.zeros(x.shape[:-1] + (6, 12))
        Dside[..., rows, b] = g * (u[..., c] / su[..., c] - R * (u[..., b] / su[..., b]))
        Dside[..., rows, c] = g * (u[..., b] / su[..., b] - R * (u[..., c] / su[..., c]))
        Dside[..., rows, o] = g * (-su[..., o] / (su[..., b] * su[..., c]))
        D.append(Dside)
    angles = 0.5 * (ends[0] + ends[1])
    D = 0.5 * (D[0] + D[1])
    return angles, D @ T


def mp_angles(x):
    """The cofactor map in mpmath, at 60 digits on the float inputs."""
    with mpmath.workdps(60):
        H = mpmath.eye(4)
        for e, (v, w) in enumerate(EDGE_VERTEX_PAIRS):
            H[v, w] = H[w, v] = -mpmath.cosh(mpmath.mpf(float(x[e])))
        det = mpmath.det(H)
        adj = mpmath.inverse(H) * det
        out = []
        for e, (v, w) in enumerate(EDGE_VERTEX_PAIRS):
            i, j = EDGE_VERTEX_PAIRS[5 - e]
            sin = mpmath.sqrt(-det) * mpmath.sinh(mpmath.mpf(float(x[e])))
            out.append(mpmath.atan2(sin, adj[i, j]))
        return out


def test_regular_arcs_closed_form():
    arcs = tetgeom.arcs_from_lengths(REG1)
    want = math.acosh((math.cosh(1) + math.cosh(1) ** 2) / math.sinh(1) ** 2)
    assert arcs.shape == (12,)
    assert np.abs(arcs - want).max() < 1e-14


def test_arcs_positive(rng):
    for _ in range(50):
        x = np.exp(rng.uniform(-3, 2, size=6))
        arcs = tetgeom.arcs_from_lengths(x)
        assert (arcs > 0).all() and np.isfinite(arcs).all()


def test_arc_limit_long_edge():
    # as x_01 grows, arcs at vertex 0 in faces containing edge 01 approach
    # coth of the other edge at that vertex (here coth 1)
    gaps = []
    for big in (10.0, 20.0, 40.0):
        x = np.ones(6)
        x[0] = big  # edge 01
        arcs = tetgeom.arcs_from_lengths(x)
        # arc (vertex 0, face {0,1,2}): the face opposite vertex 3
        i = tetgeom.ARC_VERTEX_FACE.index((0, 3))
        gaps.append(abs(math.cosh(arcs[i]) - math.cosh(1) / math.sinh(1)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-12


def test_regular_angles():
    a = tetgeom.angles_from_lengths(REG1)
    assert np.abs(a - regular_angle(1.0)).max() < 1e-14
    vs = tetgeom.vertex_angle_sums(a)
    assert np.abs(vs - 3 * regular_angle(1.0)).max() < 1e-13
    assert (vs < math.pi).all()
    assert abs(vs[0] - 2.215) < 1e-2


def test_equilibrium_angles_are_pi_over_6():
    a = tetgeom.angles_from_lengths(np.full(6, XSTAR))
    assert np.abs(a - math.pi / 6).max() < 1e-10
    # and the frozen XSTAR satisfies its defining identity
    assert abs(math.cosh(XSTAR) - math.sqrt(3) / (2 * math.sqrt(3) - 2)) < 1e-15


def test_known_inadmissible_witness():
    x = np.array([10.0, 0.01, 0.01, 0.01, 0.01, 10.0])
    assert not tetgeom.is_admissible(x)
    with pytest.raises(InadmissibleShapeError):
        tetgeom.angles_from_lengths(x)


def test_inadmissible_error_is_located():
    x = np.array([10.0, 0.01, 0.01, 0.01, 0.01, 10.0])
    with pytest.raises(InadmissibleShapeError) as exc:
        tetgeom.angles_from_lengths(x)
    err = exc.value
    assert err.reason in ("corner_cosine", "vertex_sum")
    if err.reason == "corner_cosine":
        assert err.edge in range(6)
        assert err.vertex == EDGE_VERTEX_PAIRS[err.edge][0]


def test_nonpositive_length_rejected():
    with pytest.raises(InadmissibleShapeError):
        tetgeom.angles_from_lengths(np.array([1, 1, 1, 1, 1, 0.0]))
    with pytest.raises(ValueError):
        tetgeom.angles_from_lengths(np.array([1, 1, 1, np.inf, 1, 1]))
    with pytest.raises(ValueError):
        tetgeom.angles_from_lengths(np.ones(5))


def test_endpoint_consistency(rng):
    X = sample_admissible(rng, 60)
    ref, _ = hexagon_reference(X)
    assert np.abs(tetgeom._pipeline(X).angles - ref).max() <= 1e-10


@pytest.mark.parametrize("x", [0.001, 0.004, 1.0, 8.0, 10.0, 12.0])
def test_regular_angle_against_mpmath(x):
    with mpmath.workdps(40):
        c = mpmath.cosh(mpmath.mpf(x))
        want = mpmath.acos(c / (2 * c - 1))
        a = tetgeom.angles_from_lengths(np.full(6, x))
        assert max(abs((mpmath.mpf(float(v)) - want) / want) for v in a) <= 1e-15


# Long edges next to short ones.  The first loses 5e-9 in the hexagon
# pipeline's angles; the second has det H < 0 and vertex slack 4.5e-8, and
# the Minkowski oracle accepts it.  The third has a long edge opposite a
# short one e, where h_e^2 - 1 formed in floats costs 9e-14 in the angles.
@pytest.mark.parametrize("x", [(11.2, 0.06, 0.12, 1.2, 10.88, 0.03),
                               (1.7, 13.64, 0.25, 15.83, 2.25, 4.14),
                               (0.073, 6.944, 0.572, 0.065, 0.128, 0.06)])
def test_long_edge_shapes_against_mpmath(x):
    x = np.array(x)
    assert tetgeom.is_admissible(x)
    assert propsuite.minkowski_oracle(x) is not None
    a = tetgeom.angles_from_lengths(x)
    assert max(abs(float(mpmath.mpf(float(v)) - w))
               for v, w in zip(a, mp_angles(x))) <= 1e-14


def test_admissibility_margin():
    m = tetgeom._pipeline(REG1).margin
    a = regular_angle(1.0)
    # regular case: cosine guard 1 - cos(a) vs vertex slack pi - 3a
    assert abs(m - min(1.0 - math.cos(a), math.pi - 3 * a)) < 1e-12
    assert tetgeom._pipeline(
        np.array([10.0, 0.01, 0.01, 0.01, 0.01, 10.0])).margin <= 0.0


@pytest.mark.parametrize("value", [-1.0, 0.0, 400.0, math.nan],
                         ids=["negative", "zero", "above_max", "nan"])
@pytest.mark.parametrize("edges", [[0], [3], list(range(6))],
                         ids=["edge0", "edge3", "all"])
def test_margin_of_rejected_lengths_is_minus_inf(value, edges):
    # The length rule decides first, even where the mirrored shape of
    # x = -1 has healthy corners; batch neighbours keep their own margins.
    x = REG1.copy()
    x[edges] = value
    pl = tetgeom._pipeline(x)
    assert pl.margin == -math.inf and not pl.ok
    assert (pl.slack == -math.inf).all()
    reg = tetgeom._pipeline(REG1)
    pl = tetgeom._pipeline(np.stack([REG1, x, REG1]))
    assert list(pl.ok) == [True, False, True]
    assert list(pl.margin) == [reg.margin, -math.inf, reg.margin]


def test_jacobian_symmetry_structure():
    # regular shape: J commutes with the tetrahedron's edge symmetries, so
    # entries depend only on the edge-pair relation
    J = tetgeom.jacobian_angles_lengths(REG1)
    diag = np.diag(J)
    assert np.abs(diag - diag[0]).max() < 1e-12
    opp = [J[e, OPPOSITE_EDGE[e]] for e in range(6)]
    assert np.abs(np.array(opp) - opp[0]).max() < 1e-12
    adj = [J[e, f] for e in range(6) for f in range(6)
           if f != e and f != OPPOSITE_EDGE[e]]
    assert np.abs(np.array(adj) - adj[0]).max() < 1e-12


def test_jacobian_fd_spd(rng):
    h = 1e-5
    for x in sample_admissible(rng, 30):
        J = tetgeom.jacobian_angles_lengths(x)
        fd = np.zeros((6, 6))
        for j in range(6):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (tetgeom.angles_from_lengths(xp)
                        - tetgeom.angles_from_lengths(xm)) / (2 * h)
        assert np.abs(J - fd).max() < 1e-6
        assert np.abs(J - J.T).max() < 1e-8
        w = np.linalg.eigvalsh(0.5 * (J + J.T))
        assert w.min() > 0
        Jinv = np.linalg.inv(J)
        assert np.abs(Jinv - Jinv.T).max() < 1e-8
        assert np.linalg.eigvalsh(0.5 * (Jinv + Jinv.T)).min() > 0


def test_jacobian_symmetric_and_matches_hexagon_reference(rng):
    # over [0.02, 8] the hexagon Jacobian is asymmetric by up to 5e-11
    X = sample_admissible(rng, 2000, low=0.02, high=8.0)
    J = tetgeom.jacobian_angles_lengths(X)
    scale = np.abs(J).max(axis=(-2, -1))
    asym = np.abs(J - np.swapaxes(J, -1, -2)).max(axis=(-2, -1)) / scale
    assert asym.max() <= 1e-11
    _, ref = hexagon_reference(X)
    assert (np.abs(J - ref).max(axis=(-2, -1)) / scale).max() <= 1e-9


@pytest.mark.parametrize("length", [120.0, 150.0, 175.0, 180.0, 300.0])
def test_overflowing_regular_shape_is_inadmissible(census_tri, length):
    # cofactor products overflow from about 120 on, below MAX_LENGTH; the
    # shape must come out inadmissible with a margin that is not NaN
    x = np.full(6, length)
    assert not tetgeom.is_admissible(x)
    assert not np.isnan(tetgeom._pipeline(x).margin)
    with pytest.raises(InadmissibleShapeError):
        tetgeom.angles_from_lengths(x)
    ev = evaluate(census_tri, [length])
    assert not ev.admissible and not np.isnan(ev.margin()[0])


def test_inversion_roundtrips(rng):
    X = sample_admissible(rng, 200)
    A = np.array([tetgeom.angles_from_lengths(x) for x in X])
    for x, a in zip(X, A):
        xr = tetgeom.lengths_from_angles(a)
        assert np.abs(xr - x).max() < 1e-9
        ar = tetgeom.angles_from_lengths(xr)
        assert np.abs(ar - a).max() < 1e-9


def test_inversion_regular_target():
    x = tetgeom.lengths_from_angles(np.full(6, math.pi / 6))
    assert np.abs(x - XSTAR).max() < 1e-12


def test_inversion_rejects_boundary():
    # vertex sum exactly pi sits on the polytope boundary
    a = np.full(6, math.pi / 3)
    with pytest.raises(ValueError):
        tetgeom.lengths_from_angles(a)
    with pytest.raises(ValueError):
        tetgeom.lengths_from_angles(np.full(6, 0.0))
    with pytest.raises(ValueError):
        tetgeom.lengths_from_angles(np.full(6, math.pi))


def test_schlafli_reference_zero():
    assert float(tetgeom.volume(tetgeom.angles_from_lengths(REG1))
                 - tetgeom.V_REF) == 0.0


def test_schlafli_gradient(rng):
    h = 1e-5
    for x in sample_admissible(rng, 12):
        a = tetgeom.angles_from_lengths(x)
        for j in range(6):
            ap, am = a.copy(), a.copy()
            ap[j] += h
            am[j] -= h
            fd = (float(tetgeom.volume(tetgeom.validate_angles(ap)) - tetgeom.V_REF)
                  - float(tetgeom.volume(tetgeom.validate_angles(am))
                          - tetgeom.V_REF)) / (2 * h)
            assert abs(fd - (-x[j] / 2)) < 1e-6


def test_schlafli_path_independence(rng):
    ref = tetgeom.REF_ANGLES
    for x in sample_admissible(rng, 20):
        a = tetgeom.angles_from_lengths(x)
        direct = float(tetgeom.volume(tetgeom.validate_angles(a)) - tetgeom.V_REF)
        # detour through a random interior waypoint (polytope is convex,
        # so the blend of two admissible angle vectors is admissible)
        lam = 0.3 + 0.4 * rng.random()
        mid = (1 - lam) * ref + lam * a
        two_leg = schlafli_leg(ref, mid) + schlafli_leg(mid, a)
        assert abs(two_leg - direct) < 2e-9


def test_minkowski_oracle_agreement(rng):
    draws = np.exp(rng.uniform(np.log(0.02), np.log(8.0), size=(400, 6)))
    admissible = 0
    for x in draws:
        trig = tetgeom.is_admissible(x)
        oracle = propsuite.minkowski_oracle(x)
        assert trig == (oracle is not None)
        if trig:
            admissible += 1
            gap = np.abs(oracle - tetgeom.angles_from_lengths(x)).max()
            assert gap < 1e-9
    assert admissible > 20


def test_minkowski_oracle_regular_symmetry():
    a = propsuite.minkowski_oracle(REG1)
    assert a is not None
    assert np.abs(a - a[0]).max() < 1e-12


def test_convexity_probe():
    rep = propsuite.probe_length_space_convexity(1500, seed=0)
    assert len(rep.witnesses) > 0
    x0, x1 = (np.array(w) for w in rep.witnesses[0])
    assert tetgeom.is_admissible(x0) and tetgeom.is_admissible(x1)
    assert not tetgeom.is_admissible(0.5 * (x0 + x1))


def test_convexity_probe_deterministic_and_empty():
    a = propsuite.probe_length_space_convexity(300, seed=9)
    b = propsuite.probe_length_space_convexity(300, seed=9)
    assert a.to_json_obj() == b.to_json_obj()
    empty = propsuite.probe_length_space_convexity(0, seed=9)
    assert empty.pairs_admissible == 0 and empty.witnesses == ()


def test_inversion_rejects_vertex_sum_rounding_to_pi():
    # three angles of pi/3 - 1e-16 sum to pi in floating point
    with pytest.raises(ValueError, match="not strictly below pi"):
        tetgeom.lengths_from_angles(np.full(6, math.pi / 3 - 1e-16))
