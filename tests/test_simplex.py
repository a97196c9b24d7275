"""The dense two-phase simplex core."""

import random

import numpy as np
import pytest

from hyperideal import angles, simplex, triangulation
from hyperideal.errors import ConvergenceError

from conftest import ten_n_row_angle_lp


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


@pytest.mark.parametrize("kw", [dict(b_eq=[5.0]), dict(b_ub=[1.0]),
                                dict(A_eq=[[1.0]]), dict(A_ub=[[1.0]])])
def test_block_needs_matrix_and_rhs(kw):
    # x = 5 must not be dropped for want of its matrix, nor x <= 1.
    with pytest.raises(ValueError):
        simplex.solve_lp([1.0], **kw)


def test_phase_pivots():
    # Phase 1 ends with an artificial basic at zero in row 1, which one more
    # pivot drives out; x = 0 is then optimal without a phase-2 pivot.
    res = simplex.solve_lp([1.0, 1.0], A_eq=[[1.0, 1.0], [1.0, 2.0]],
                           b_eq=[0.0, 0.0])
    assert res.status == "optimal"
    assert res.phase_pivots == (2, 1, 0)
    assert res.iterations == 2


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
        pos = colv > simplex._PIVOT_TOL
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
    raise ConvergenceError(f"simplex exceeded {max_iter} pivots")


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


def _fixture_tri(name):
    return pytest.param(lambda request: request.getfixturevalue(name), id=name)


def _sampled_tri(n, seed):
    # The ntet workload's multi-edge draws: phase 1 takes up to 58 pivots,
    # and ratios within _TOL of each other decide which row leaves.
    return pytest.param(
        lambda request: request.getfixturevalue("sampler").sample(
            n, random.Random(seed))[0], id=f"sampled{n}_seed{seed}")


@pytest.mark.parametrize("tri_of", [
    *map(_fixture_tri, ["census_tri", "torus_tri", "multi_tri", "ntet12_tri"]),
    *(_sampled_tri(n, seed) for n in (8, 12) for seed in range(10))])
def test_angle_lps_match_dense_update(tri_of, request, monkeypatch):
    c, kw = _angle_lp(tri_of(request), monkeypatch)
    assert assert_matches_dense(monkeypatch, c, **kw).status == "optimal"


def test_one_tet_angle_lps_match_dense_update(monkeypatch):
    specs = triangulation.search_gluings(1, triangulation.any_gluing)
    assert len(specs) == 27
    for spec in specs:
        tri = triangulation.build(spec, enforce_link_hypothesis=False)
        c, kw = _angle_lp(tri, monkeypatch)
        assert_matches_dense(monkeypatch, c, **kw)


@pytest.mark.parametrize("n, pivots", [(32, 199), (64, 391)])
def test_scale_angle_lps_match_dense_update(n, pivots, sampler, monkeypatch):
    # The 10n-row angle LP, a row per angle, on the scale workload's first
    # one-edge draws: every angle enters the basis once, a long run of
    # pivots to hold against the dense reference.
    tri = sampler.sample(n, random.Random(1), one_edge=True)[0]
    c, kw = ten_n_row_angle_lp(tri)
    res = assert_matches_dense(monkeypatch, c, **kw)
    assert res.status == "optimal"
    assert res.iterations == pivots


@pytest.mark.parametrize("n", [32, 64])
def test_scale_package_angle_lps_match_dense_update(n, sampler, monkeypatch):
    # The same draws through lp_feasibility's own LP, which has no row per
    # angle: phase 2 takes 5 pivots at both sizes.
    tri = sampler.sample(n, random.Random(1), one_edge=True)[0]
    c, kw = _angle_lp(tri, monkeypatch)
    res = assert_matches_dense(monkeypatch, c, **kw)
    assert res.status == "optimal"
    assert res.phase_pivots == (7, 0, 5)


# -- the ratio test against the dense reference, one pivot at a time -------

def _one_pivot_tableau(ratios, colv, basis):
    """Column 0 is the only eligible column, row i has ratio ratios[i] in it
    (colv[i] is a power of two, so rhs / colv is exact) and basic column
    basis[i].  One pivot leaves every reduced cost non-negative."""
    m = len(ratios)
    T = np.zeros((m + 1, m + 2), order="F")
    T[:m, 0] = colv
    T[:m, -1] = np.asarray(ratios) * np.abs(colv)
    T[np.arange(m), basis] = 1.0
    T[-1, 0] = -1.0
    return T


def _compare_pivot(ratios, colv, basis):
    out = []
    for iterate in (simplex._iterate, _dense_iterate):
        T = _one_pivot_tableau(ratios, colv, basis)
        b = np.array(basis)
        out.append((iterate(T, b, np.ones(T.shape[1] - 1, dtype=bool), 5),
                    b, T))
    (res, b, T), (ref_res, ref_b, ref_T) = out
    assert res == ref_res == ("optimal", 1)
    assert np.array_equal(b, ref_b)
    assert np.array_equal(T, ref_T)
    return int(np.flatnonzero(b != basis)[0])


def _draws(values, seed, trials=200):
    """Random rows: a ratio from values, a power-of-two column entry, or an
    entry <= _PIVOT_TOL that takes the row out of the ratio test; random
    basis."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        m = int(rng.integers(1, 12))
        colv = 2.0 ** rng.integers(-2, 3, size=m)
        colv[rng.random(m) < 0.2] = rng.choice([0.0, -1.0,
                                                simplex._PIVOT_TOL])
        colv[rng.integers(m)] = 1.0
        ratios = rng.choice(values, size=m)
        yield ratios, colv, list(1 + rng.permutation(m))


def test_ratio_test_all_zero_ratios():
    for ratios, colv, basis in _draws([0.0], seed=1):
        row = _compare_pivot(ratios, colv, basis)
        # Bland: the smallest basic index among the rows in the test.
        rows = np.flatnonzero(colv > simplex._PIVOT_TOL)
        assert basis[row] == min(basis[i] for i in rows)


def test_ratio_test_chain_of_near_ties():
    # Neighbours 0.45 * _TOL apart, 3.6 * _TOL end to end: which row wins
    # depends on the order the loop meets them in.
    chain = 1.0 + 0.45 * simplex._TOL * np.arange(9)
    assert np.all(np.diff(chain) < simplex._TOL)
    assert chain[-1] - chain[0] > simplex._TOL
    winners = set()
    for ratios, colv, basis in _draws(chain, seed=2):
        row = _compare_pivot(ratios, colv, basis)
        winners.add(ratios[row] == ratios[colv > simplex._PIVOT_TOL].min())
    assert winners == {True, False}


def test_ratio_test_ratios_past_tol_resolution():
    # At 1e6 an ulp is above 2 * _TOL, so v + _TOL == v and ties go to the
    # first row.
    v = 1e6
    assert v + simplex._TOL == v
    values = v + np.spacing(v) * np.arange(3)
    for ratios, colv, basis in _draws(values, seed=3):
        row = _compare_pivot(ratios, colv, basis)
        rows = np.flatnonzero(colv > simplex._PIVOT_TOL)
        assert row == rows[np.argmin(ratios[rows])]


def test_ratio_test_skips_rows_below_pivot_tol(monkeypatch):
    # A degenerate row, rhs 0 and entering entry 1e-10, has the least ratio:
    # a rule letting every entry above _TOL pivot takes it, while only the
    # row whose entry exceeds _PIVOT_TOL may pivot.
    def pivot_row():
        T = _one_pivot_tableau([0.0, 1.0], [1e-10, 1.0], [1, 2])
        basis = np.array([1, 2])
        assert simplex._iterate(T, basis, np.ones(3, dtype=bool), 5) == \
               ("optimal", 1)
        return int(np.flatnonzero(basis != [1, 2])[0])

    assert simplex._TOL < 1e-10 <= simplex._PIVOT_TOL
    assert pivot_row() == 1
    monkeypatch.setattr(simplex, "_PIVOT_TOL", simplex._TOL)
    assert pivot_row() == 0
