"""Closed-form volume and lengths against oracles that do not use them.

mpmath's Clausen function and quadrature give the regular pi/(3n) family
independently; the Kojima-Miyamoto minimal volume is an absolute value from
the literature.  The damped Newton inversion of the angle map and the
adaptive Schlafli quadrature over it, which the closed forms replaced, are
kept here as references.
"""

import math

import mpmath
import numpy as np
import pytest

from hyperideal import tetgeom

from conftest import sample_admissible


def _newton_lengths(target, x0, tol=1e-12, max_iter=200):
    """Solve angles(x) = target row-wise by damped Newton; target, x0: (m, 6).

    Rows of x0 that are not admissible fall back to the all-ones shape,
    which always is.  Steps are halved per row until the residual decreases
    and the iterate stays admissible.
    """
    x = np.array(x0, dtype=float)
    x[~tetgeom._pipeline(x).ok] = 1.0
    res = tetgeom._pipeline(x).angles - target
    rnorm = np.abs(res).max(axis=1)
    for _ in range(max_iter):
        active = rnorm >= tol
        if not active.any():
            return x
        J = tetgeom._jacobian(tetgeom._pipeline(x[active]))
        step = np.linalg.solve(J, -res[active][..., None])[..., 0]
        idx = np.flatnonzero(active)
        lam = np.ones(idx.size)
        pending = np.ones(idx.size, dtype=bool)
        for _halving in range(60):
            if not pending.any():
                break
            rows = idx[pending]
            cand = x[rows] + lam[pending, None] * step[pending]
            pos = (cand > 0.0).all(axis=1) & (cand <= tetgeom.MAX_LENGTH).all(axis=1)
            cpl = tetgeom._pipeline(np.where(pos[:, None], cand, 1.0))
            cres = cpl.angles - target[rows]
            crn = np.abs(cres).max(axis=1)
            good = pos & cpl.ok & (crn < rnorm[rows])
            gr = rows[good]
            x[gr] = cand[good]
            res[gr] = cres[good]
            rnorm[gr] = crn[good]
            sub = np.flatnonzero(pending)
            pending[sub[good]] = False
            lam[sub[~good]] *= 0.5
        assert not pending.any(), "reference length solve stalled"
    raise AssertionError("reference length solve did not converge")


def _gl_nodes_value(a0, d, s_lo, s_hi, x_lo, x_hi, order):
    z, w = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (s_lo + s_hi) + 0.5 * (s_hi - s_lo) * z
    frac = (s - s_lo) / (s_hi - s_lo)
    X0 = x_lo[None, :] + frac[:, None] * (x_hi - x_lo)[None, :]
    X = _newton_lengths(a0[None, :] + s[:, None] * d[None, :], X0)
    return 0.5 * (s_hi - s_lo) * float(w @ (-0.5 * (X @ d)))


def _quadrature(a0, d, s_lo, s_hi, x_lo, x_hi, tol, depth=0):
    """Integral of -(1/2) x . da from a0 + s_lo d to a0 + s_hi d, adaptively."""
    coarse = _gl_nodes_value(a0, d, s_lo, s_hi, x_lo, x_hi, 12)
    fine = _gl_nodes_value(a0, d, s_lo, s_hi, x_lo, x_hi, 24)
    if abs(fine - coarse) <= tol:
        return fine
    assert depth < 28, "reference quadrature failed to converge"
    s_mid = 0.5 * (s_lo + s_hi)
    x_mid = _newton_lengths((a0 + s_mid * d)[None, :],
                            (0.5 * (x_lo + x_hi))[None, :])[0]
    return (_quadrature(a0, d, s_lo, s_mid, x_lo, x_mid, 0.5 * tol, depth + 1)
            + _quadrature(a0, d, s_mid, s_hi, x_mid, x_hi, 0.5 * tol, depth + 1))


def test_clausen_matches_mpmath():
    theta = np.linspace(-math.pi, math.pi, 721)[1:]
    ref = np.array([float(mpmath.clsin(2, t)) for t in theta])
    assert np.abs(tetgeom.clausen(theta) - ref).max() <= 1e-15
    # 2 pi-periodic outside the reduction interval
    assert np.abs(tetgeom.clausen(theta + 4 * math.pi) - ref).max() <= 1e-14
    assert tetgeom.clausen(0.0) == 0.0


@pytest.mark.parametrize("n", [2, 4, 8, 32])
def test_regular_family_matches_mpmath_integral(n):
    # regular ideal tetrahedron, (3/2) Cl_2(2 pi/3), plus the Schlafli
    # integral of -3 x ds down the family, cosh x = cos s / (2 cos s - 1)
    alpha = math.pi / (3 * n)
    with mpmath.workdps(30):
        ideal = 1.5 * mpmath.clsin(2, 2 * mpmath.pi / 3)
        rise = 3 * mpmath.quad(
            lambda s: mpmath.acosh(mpmath.cos(s) / (2 * mpmath.cos(s) - 1)),
            [mpmath.mpf(alpha), mpmath.pi / 3])
        expected = float(ideal + rise)
    assert abs(float(tetgeom.volume(np.full(6, alpha))) - expected) <= 1e-13


def test_kojima_miyamoto_minimal_volume():
    # two regular pi/6 tetrahedra glue to the smallest hyperbolic
    # 3-manifold with geodesic boundary, of volume 6.451990...
    assert abs(2 * float(tetgeom.volume(np.full(6, math.pi / 6))) - 6.451990) <= 1e-6


def test_volume_matches_schlafli_quadrature():
    rng = np.random.default_rng(31)
    ref = tetgeom.REF_ANGLES
    for x in sample_admissible(rng, 40):
        a = tetgeom.angles_from_lengths(x)
        quad = _quadrature(ref, a - ref, 0.0, 1.0, tetgeom.REF_LENGTHS, x, 1e-10)
        potential = float(tetgeom.volume(tetgeom.validate_angles(a))
                          - tetgeom.V_REF)
        assert abs(potential - quad) <= 1e-10


def test_volume_is_batched():
    rng = np.random.default_rng(32)
    A = np.array([tetgeom.angles_from_lengths(x) for x in sample_admissible(rng, 6)])
    batch = tetgeom.volume(A.reshape(2, 3, 6))
    assert batch.shape == (2, 3)
    single = np.array([float(tetgeom.volume(a)) for a in A])
    assert np.abs(batch.ravel() - single).max() <= 1e-15


def test_lengths_match_damped_newton():
    rng = np.random.default_rng(33)
    X = sample_admissible(rng, 200)
    A = tetgeom.angles_from_lengths(X)
    ref = _newton_lengths(A, np.ones_like(A))
    assert np.abs(tetgeom._newton_lengths(A) - ref).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 4, 8, 32, 64, 128])
def test_regular_family_lengths(n):
    c = math.cos(math.pi / (3 * n))
    x = tetgeom.lengths_from_angles(np.full(6, math.pi / (3 * n)))
    assert np.abs(x - math.acosh(c / (2 * c - 1))).max() <= 1e-12


def test_long_edge_round_trip():
    # the damped Newton solve stalled here: its 1e-12 residual target lay
    # below the rounding of the angle pipeline at these lengths
    x = np.array([7.8, 1.2, 6.6, 1.3, 1.1, 1.0])
    a = tetgeom.angles_from_lengths(x)
    back = tetgeom.lengths_from_angles(a)
    assert np.abs(back - x).max() <= 1e-9
    assert np.abs(tetgeom.angles_from_lengths(back) - a).max() <= 1e-10
