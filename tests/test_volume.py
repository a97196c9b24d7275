"""Closed-form volume against oracles that do not use it.

mpmath's Clausen function and quadrature give the regular pi/(3n) family
independently; the Kojima-Miyamoto minimal volume is an absolute value from
the literature; and the adaptive Schlafli quadrature that the closed form
replaced is kept here as a reference along arbitrary angle segments.
"""

import math

import mpmath
import numpy as np
import pytest

from hyperideal import tetgeom

from conftest import sample_admissible


def _gl_nodes_value(a0, d, s_lo, s_hi, x_lo, x_hi, order):
    z, w = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (s_lo + s_hi) + 0.5 * (s_hi - s_lo) * z
    frac = (s - s_lo) / (s_hi - s_lo)
    X0 = x_lo[None, :] + frac[:, None] * (x_hi - x_lo)[None, :]
    X = tetgeom._newton_lengths(a0[None, :] + s[:, None] * d[None, :], X0)
    return 0.5 * (s_hi - s_lo) * float(w @ (-0.5 * (X @ d)))


def _quadrature(a0, d, s_lo, s_hi, x_lo, x_hi, tol, depth=0):
    """Integral of -(1/2) x . da from a0 + s_lo d to a0 + s_hi d, adaptively."""
    coarse = _gl_nodes_value(a0, d, s_lo, s_hi, x_lo, x_hi, 12)
    fine = _gl_nodes_value(a0, d, s_lo, s_hi, x_lo, x_hi, 24)
    if abs(fine - coarse) <= tol:
        return fine
    assert depth < 28, "reference quadrature failed to converge"
    s_mid = 0.5 * (s_lo + s_hi)
    x_mid = tetgeom._newton_lengths((a0 + s_mid * d)[None, :],
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
        assert abs(tetgeom.schlafli_potential_of_angles(a) - quad) <= 1e-10


def test_volume_is_batched():
    rng = np.random.default_rng(32)
    A = np.array([tetgeom.angles_from_lengths(x) for x in sample_admissible(rng, 6)])
    batch = tetgeom.volume(A.reshape(2, 3, 6))
    assert batch.shape == (2, 3)
    single = np.array([float(tetgeom.volume(a)) for a in A])
    assert np.abs(batch.ravel() - single).max() <= 1e-15
