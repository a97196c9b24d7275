"""The dense two-phase simplex core."""

import numpy as np
import pytest

from hyperideal import angles, simplex, triangulation


def lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None):
    z = np.zeros((0, len(c)))
    return simplex.solve_lp(
        np.asarray(c, float),
        z if A_eq is None else np.asarray(A_eq, float),
        np.zeros(0) if b_eq is None else np.asarray(b_eq, float),
        z if A_ub is None else np.asarray(A_ub, float),
        np.zeros(0) if b_ub is None else np.asarray(b_ub, float))


def test_basic_optimum():
    # max x + y st x + 2y <= 4, 3x + y <= 6  ->  (8/5, 6/5), value 14/5
    res = lp([-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6])
    assert res.status == "optimal"
    assert np.abs(res.x - [1.6, 1.2]).max() < 1e-12
    assert abs(res.objective + 2.8) < 1e-12


def test_equality_constraints():
    res = lp([1, 0], A_eq=[[1, 1]], b_eq=[3], A_ub=[[-1, 0]], b_ub=[-1])
    assert res.status == "optimal"
    assert np.abs(res.x - [1, 2]).max() < 1e-12


def test_infeasible():
    res = lp([1], A_ub=[[1], [-1]], b_ub=[1, -3])  # x <= 1 and x >= 3
    assert res.status == "infeasible"


def test_unbounded():
    res = lp([-1])  # max x, x >= 0 unconstrained above
    assert res.status == "unbounded"


def test_negative_rhs_handled():
    res = lp([1, 1], A_ub=[[-1, -1]], b_ub=[-2])  # x + y >= 2
    assert res.status == "optimal"
    assert abs(res.objective - 2.0) < 1e-12


def test_redundant_equalities():
    res = lp([0, -1], A_eq=[[1, 1], [2, 2]], b_eq=[2, 4])
    assert res.status == "optimal"
    assert abs(res.x.sum() - 2.0) < 1e-12


def test_beale_cycling_example_terminates():
    # classic cycling instance for the steepest-descent rule; Bland's rule
    # must terminate at the optimum (value -1/20)
    c = [-3 / 4, 150, -1 / 50, 6]
    A_ub = [[1 / 4, -60, -1 / 25, 9],
            [1 / 2, -90, -1 / 50, 3],
            [0, 0, 1, 0]]
    b_ub = [0, 0, 1]
    res = lp(c, A_ub=A_ub, b_ub=b_ub)
    assert res.status == "optimal"
    assert abs(res.objective - (-1 / 20)) < 1e-12


def test_determinism():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 9))
    b = np.abs(rng.normal(size=6)) + 1.0
    c = rng.normal(size=9)
    r1 = lp(c, A_ub=A, b_ub=b)
    r2 = lp(c, A_ub=A, b_ub=b)
    assert r1.status == r2.status
    if r1.status == "optimal":
        assert np.array_equal(r1.x, r2.x)
        assert r1.iterations == r2.iterations


def test_shape_validation():
    with pytest.raises(ValueError):
        lp([1, 2], A_ub=[[1]], b_ub=[1])


# -- bit identity against the dense update ---------------------------------
#
# References: the full-width rank-one update and the pivot rules as they were
# written before the pivot learned to skip the zero columns of the pivot row.
# solve_lp run with these swapped in must agree with the production code bit
# for bit: same status, pivots, objective and solution bytes.

def _dense_pivot(T, basis, row, col):
    T[row] /= T[row, col]
    colvals = T[:, col].copy()
    colvals[row] = 0.0
    T -= np.outer(colvals, T[row])
    basis[row] = col


def _dense_iterate(T, basis, allowed, max_iter):
    m = T.shape[0] - 1
    for it in range(max_iter):
        obj = T[-1, :-1]
        entering = -1
        for j in np.flatnonzero(allowed):
            if obj[j] < -simplex._TOL:
                entering = int(j)
                break
        if entering < 0:
            return "optimal", it
        ratios = np.full(m, np.inf)
        colv = T[:m, entering]
        pos = colv > simplex._TOL
        ratios[pos] = T[:m, -1][pos] / colv[pos]
        best = np.inf
        row = -1
        for i in range(m):
            if ratios[i] < best - simplex._TOL or (
                    ratios[i] < best + simplex._TOL and row >= 0
                    and basis[i] < basis[row]):
                if ratios[i] < np.inf:
                    best = min(best, ratios[i])
                    row = i
        if row < 0:
            return "unbounded", it
        _dense_pivot(T, basis, row, entering)
    raise RuntimeError(f"simplex exceeded {max_iter} pivots")


def assert_matches_dense(monkeypatch, c, **kw):
    res = simplex.solve_lp(c, **kw)
    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_pivot", _dense_pivot)
        mp.setattr(simplex, "_iterate", _dense_iterate)
        ref = simplex.solve_lp(c, **kw)
    assert res.status == ref.status
    assert res.iterations == ref.iterations
    assert repr(res.objective) == repr(ref.objective)
    assert (res.x is None) == (ref.x is None)
    if res.x is not None:
        assert res.x.tobytes() == ref.x.tobytes()
        assert not np.signbit(res.x[res.x == 0.0]).any()
    return res


UNIT_LPS = {
    "basic": dict(c=[-1, -1], A_ub=[[1, 2], [3, 1]], b_ub=[4, 6]),
    "equality": dict(c=[1, 0], A_eq=[[1, 1]], b_eq=[3],
                     A_ub=[[-1, 0]], b_ub=[-1]),
    "infeasible": dict(c=[1], A_ub=[[1], [-1]], b_ub=[1, -3]),
    "unbounded": dict(c=[-1]),
    "negative_rhs": dict(c=[1, 1], A_ub=[[-1, -1]], b_ub=[-2]),
    "redundant": dict(c=[0, -1], A_eq=[[1, 1], [2, 2]], b_eq=[2, 4]),
    "beale": dict(c=[-3 / 4, 150, -1 / 50, 6],
                  A_ub=[[1 / 4, -60, -1 / 25, 9],
                        [1 / 2, -90, -1 / 50, 3],
                        [0, 0, 1, 0]],
                  b_ub=[0, 0, 1]),
}


@pytest.mark.parametrize("name", sorted(UNIT_LPS))
def test_unit_lps_match_dense_update(name, monkeypatch):
    kw = dict(UNIT_LPS[name])
    c = np.asarray(kw.pop("c"), float)
    kw = {k: np.asarray(v, float) for k, v in kw.items()}
    assert_matches_dense(monkeypatch, c, **kw)


def test_degenerate_integer_lps_match_dense_update(monkeypatch):
    # Small integer data make exact zeros, ties in the ratio test and
    # degenerate pivots common: the cases where a signed zero could leak.
    rng = np.random.default_rng(11)
    statuses = set()
    for _ in range(300):
        m, n, me = rng.integers(1, 8), rng.integers(1, 10), rng.integers(0, 3)
        A_ub = np.vstack([rng.integers(-2, 3, size=(m, n)), np.ones((1, n))])
        b_ub = np.append(rng.integers(-2, 3, size=m), 5.0)
        res = assert_matches_dense(
            monkeypatch, rng.integers(-3, 3, size=n).astype(float),
            A_eq=rng.integers(-1, 2, size=(me, n)).astype(float),
            b_eq=rng.integers(-1, 3, size=me).astype(float),
            A_ub=A_ub.astype(float), b_ub=b_ub.astype(float))
        statuses.add(res.status)
    assert statuses == {"optimal", "infeasible"}


def _angle_lp(tri, monkeypatch):
    """The arguments lp_feasibility hands to solve_lp for tri."""
    seen = {}
    solve = simplex.solve_lp

    def spy(c, **kw):
        seen.update(kw, c=c)
        return solve(c, **kw)

    with monkeypatch.context() as mp:
        mp.setattr(simplex, "solve_lp", spy)
        angles.lp_feasibility(tri)
    return seen.pop("c"), seen


@pytest.mark.parametrize("tri_fixture", ["census_tri", "torus_tri",
                                         "multi_tri", "ntet12_tri"])
def test_angle_lps_match_dense_update(tri_fixture, request, monkeypatch):
    c, kw = _angle_lp(request.getfixturevalue(tri_fixture), monkeypatch)
    assert assert_matches_dense(monkeypatch, c, **kw).status == "optimal"


def test_one_tet_angle_lps_match_dense_update(monkeypatch):
    specs = triangulation.search_gluings(1, triangulation.any_gluing)
    assert len(specs) == 27
    for spec in specs:
        tri = triangulation.build(spec, enforce_link_hypothesis=False)
        c, kw = _angle_lp(tri, monkeypatch)
        assert_matches_dense(monkeypatch, c, **kw)
