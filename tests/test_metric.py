"""Curvature map, assembled Jacobian, and the energy on triangulations."""

import math

import numpy as np
import pytest

from hyperideal import metric as M
from hyperideal import tetgeom
from hyperideal.errors import DefinitenessError, InadmissibleShapeError

from conftest import XSTAR, census_metric, state

TWO_PI = 2.0 * math.pi


def test_cone_metric_validation(census_tri):
    with pytest.raises(InadmissibleShapeError) as exc:
        M.ConeMetric(tri=census_tri, x=np.array([-1.0]))
    assert exc.value.reason == "nonpositive_length"
    with pytest.raises(ValueError):
        M.ConeMetric(tri=census_tri, x=np.array([1.0, 2.0]))
    m = census_metric(census_tri)
    with pytest.raises(ValueError):
        m.x[0] = 2.0  # read-only


def test_curvature_at_equilibrium(census_tri):
    st = state(census_metric(census_tri, XSTAR))
    assert abs(st.S[0] - TWO_PI) < 1e-10
    assert abs(st.K[0]) < 1e-10


def test_curvature_at_ones(census_tri):
    st = state(census_metric(census_tri))
    a = math.acos(math.cosh(1.0) / (2.0 * math.cosh(1.0) - 1.0))
    assert abs(st.S[0] - 12 * a) < 1e-12
    assert abs(st.K[0] - (TWO_PI - 12 * a)) < 1e-12
    assert st.K[0] < 0


def test_angle_sum_double_counting(census_tri, torus_tri, rng):
    for tri in (census_tri, torus_tri):
        x = np.exp(rng.uniform(-0.5, 0.3, size=tri.n_edges))
        m = M.ConeMetric(tri=tri, x=x)
        st = state(m)
        assert abs(st.S.sum() - st.angles.sum()) < 1e-12


def test_inadmissible_metric_locates_tet(torus_tri):
    # lengths that break some tetrahedron: the error names the tet
    m = M.ConeMetric(tri=torus_tri, x=np.array([0.01, 12.0]))
    with pytest.raises(InadmissibleShapeError) as exc:
        state(m)
    assert exc.value.tet in (0, 1)


def test_solve_definite_certifies_or_raises_definiteness_error():
    A = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, -1.0])
    assert np.array_equal(M.solve_definite(A, b, "A"), np.linalg.solve(A, b))
    indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1
    with pytest.raises(DefinitenessError) as info:
        M.solve_definite(indefinite, b, "test matrix")
    # numpy's LinAlgError is a ValueError, which the CLI reads as bad input
    assert not isinstance(info.value, (ValueError, np.linalg.LinAlgError))
    assert "test matrix" in str(info.value)


def test_jacobian_fd_and_definiteness(census_tri, torus_tri, rng):
    h = 1e-5
    for tri in (census_tri, torus_tri):
        for _ in range(8):
            x = np.exp(rng.uniform(-0.4, 0.4, size=tri.n_edges))
            m = M.ConeMetric(tri=tri, x=x)
            try:
                J = state(m).jacobian()
            except InadmissibleShapeError:
                continue
            fd = np.zeros_like(J)
            for j in range(tri.n_edges):
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd[:, j] = (state(m.with_lengths(xp)).K
                            - state(m.with_lengths(xm)).K) / (2 * h)
            assert np.abs(J - fd).max() < 1e-6
            assert np.abs(J - J.T).max() < 1e-8
            assert np.linalg.eigvalsh(0.5 * (J + J.T)).max() < 0


def test_energy_gradient_identity_and_fd(census_tri, rng):
    h = 1e-6
    for _ in range(10):
        x = np.exp(rng.uniform(-0.6, 0.6, size=1))
        m = M.ConeMetric(tri=census_tri, x=x)
        st = state(m)
        hp = state(m.with_lengths(x + h)).H
        hm = state(m.with_lengths(x - h)).H
        assert abs((hp - hm) / (2 * h) + st.K[0]) < 1e-6  # grad H = -K


def test_energy_hessian_is_minus_jacobian(census_tri):
    h = 1e-5
    x = np.array([0.9])
    m = M.ConeMetric(tri=census_tri, x=x)
    J = state(m).jacobian()
    gp = -state(m.with_lengths(x + h)).K
    gm = -state(m.with_lengths(x - h)).K
    hess = (gp - gm) / (2 * h)
    assert abs(hess[0] - (-J[0, 0])) < 1e-5
    assert hess[0] > 0


def test_energy_gradient_zero_at_equilibrium(census_tri):
    st = state(census_metric(census_tri, XSTAR))
    assert np.abs(st.K).max() < 1e-10  # grad H = -K


def test_assembly_block_ordering(census_tri):
    # dropping one tetrahedron's block (here: halving the two identical
    # blocks) strictly raises the top eigenvalue of the assembled J
    m = census_metric(census_tri, 0.8)
    st = state(m)
    J, X = st.jacobian(), st.X
    block = np.zeros_like(J)
    cm = M.class_matrix(census_tri)
    Jt = tetgeom.jacobian_angles_lengths(X[0])
    for i in range(6):
        for j in range(6):
            block[cm[0, i], cm[0, j]] -= Jt[i, j]
    partial = J - block
    assert (np.linalg.eigvalsh(0.5 * (partial + partial.T)).max()
            > np.linalg.eigvalsh(0.5 * (J + J.T)).max())


def test_curvature_not_scale_invariant(census_tri):
    m = census_metric(census_tri)
    k1 = state(m).K
    k2 = state(m.with_lengths(1.7 * m.x)).K
    assert np.abs(k1 - k2).max() > 1e-3


def test_metric_margin_witness(census_tri):
    margin, wit = M.evaluate(census_tri, np.ones(1)).margin()
    assert margin > 0
    assert wit["kind"] in ("corner_cosine", "vertex_sum")
    assert 0 <= wit["tet"] < 2
    # margin matches the per-tet computation
    assert abs(margin - tetgeom.admissibility_margin(np.ones(6))) < 1e-15
