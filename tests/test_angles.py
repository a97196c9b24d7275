"""Angle structures: LP feasibility, realization, volume maximization.

The LP is cross-checked by an exact rational re-solve: with angles measured
in units of pi the constraint data are all small rationals, so a Fraction
simplex computes the true optimal slack with no rounding at all.  It solves
the 10n-row form, with a row per angle, that lp_feasibility substitutes
away, so the two meet only in the optimum they share.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hyperideal import angles as A
from hyperideal import dynamics as D
from hyperideal import metric as M
from hyperideal import simplex, tetgeom
from hyperideal import triangulation as T
from hyperideal.metric import Quotient
from hyperideal.errors import ConvergenceError
from hyperideal.tetgeom import VERTEX_EDGES

from conftest import XSTAR, census_metric, ten_n_row_angle_lp


def rational_simplex(c, A_eq, b_eq, A_ub, b_ub):
    """Two-phase simplex over Fractions: min c.x, x >= 0. Bland's rule."""
    m_eq, m_ub, n = len(A_eq), len(A_ub), len(c)
    rows = []
    for i in range(m_eq):
        rows.append([Fraction(v) for v in A_eq[i]] + [Fraction(0)] * m_ub
                    + [Fraction(b_eq[i])])
    for i in range(m_ub):
        slack = [Fraction(0)] * m_ub
        slack[i] = Fraction(1)
        rows.append([Fraction(v) for v in A_ub[i]] + slack + [Fraction(b_ub[i])])
    for r in rows:
        if r[-1] < 0:
            for j in range(len(r)):
                r[j] = -r[j]
    total = n + m_ub
    art = list(range(total, total + len(rows)))
    for i, r in enumerate(rows):
        ext = [Fraction(0)] * len(rows)
        ext[i] = Fraction(1)
        r[-1:-1] = ext
    basis = art[:]
    width = total + len(rows) + 1

    def eliminate(r, pc, prow, nz):
        # exact arithmetic: a column where the pivot row is 0 keeps its value
        f = r[pc]
        for j in nz:
            r[j] -= f * prow[j]

    def pivot(rows, basis, pr, pc):
        pv = rows[pr][pc]
        prow = rows[pr] = [v / pv for v in rows[pr]]
        nz = [j for j, v in enumerate(prow) if v]
        for i, r in enumerate(rows):
            if i != pr and r[pc] != 0:
                eliminate(r, pc, prow, nz)
        basis[pr] = pc
        return nz

    def solve(obj, allowed):
        while True:
            red = obj[:-1]
            enter = next((j for j in range(len(red))
                          if j in allowed and red[j] < 0), None)
            if enter is None:
                return obj
            best, pr = None, None
            for i, r in enumerate(rows):
                if r[enter] > 0:
                    ratio = r[-1] / r[enter]
                    if best is None or ratio < best or \
                            (ratio == best and basis[i] < basis[pr]):
                        best, pr = ratio, i
            assert pr is not None, "unbounded"
            nz = pivot(rows, basis, pr, enter)
            eliminate(obj, enter, rows[pr], nz)

    # phase 1: drive out artificials
    obj = [Fraction(0)] * width
    for i in range(len(rows)):
        obj = [a - b for a, b in zip(obj, rows[i])]
    for j in art:
        obj[j] = Fraction(0)
    obj = solve(obj, set(range(total)))
    if -obj[-1] > 0:
        return None  # LP infeasible in the standard-form sense
    for i in range(len(rows)):
        if basis[i] in art:
            enter = next((j for j in range(total) if rows[i][j] != 0), None)
            if enter is not None:
                pivot(rows, basis, i, enter)
    obj = [Fraction(v) for v in c] + [Fraction(0)] * (width - n)
    for i, b in enumerate(basis):
        if b < len(obj) - 1 and obj[b] != 0:
            f = obj[b]
            obj = [a - f * r for a, r in zip(obj, rows[i])]
    obj = solve(obj, set(range(total)))
    x = [Fraction(0)] * total
    for i, b in enumerate(basis):
        if b < total:
            x[b] = rows[i][-1]
    return x


def exact_lp_epsilon(tri):
    """Optimal slack of the angle LP in units of pi, as a Fraction."""
    ncol = 6 * tri.tet_count + 2  # angles, eps+, eps-
    A_eq, b_eq = [], []
    for ec in tri.edge_classes:
        row = [Fraction(0)] * ncol
        for (t, e) in ec.corners:
            row[6 * t + e] += 1
        A_eq.append(row)
        b_eq.append(Fraction(2))
    A_ub, b_ub = [], []
    for t in range(tri.tet_count):
        for v in range(4):
            row = [Fraction(0)] * ncol
            for e in VERTEX_EDGES[v]:
                row[6 * t + e] += 1
            row[-2], row[-1] = Fraction(1), Fraction(-1)
            A_ub.append(row)
            b_ub.append(Fraction(1))
    for t in range(tri.tet_count):
        for e in range(6):
            row = [Fraction(0)] * ncol
            row[6 * t + e] = Fraction(-1)
            row[-2], row[-1] = Fraction(1), Fraction(-1)
            A_ub.append(row)
            b_ub.append(Fraction(0))
    c = [Fraction(0)] * ncol
    c[-2], c[-1] = Fraction(-1), Fraction(1)
    x = rational_simplex(c, A_eq, b_eq, A_ub, b_ub)
    if x is None:
        return None
    return x[ncol - 2] - x[ncol - 1]  # x also carries the slack variables


def test_lp_census_exact_oracle(census_tri):
    lp = A.lp_feasibility(census_tri)
    exact = exact_lp_epsilon(census_tri)
    assert exact == Fraction(1, 6)
    assert lp.feasible
    assert abs(lp.epsilon - math.pi * float(exact)) < 1e-9


def test_lp_torus_exact_oracle(torus_tri):
    lp = A.lp_feasibility(torus_tri)
    exact = exact_lp_epsilon(torus_tri)
    assert not lp.feasible
    assert exact is not None and exact <= 0
    assert abs(lp.epsilon - math.pi * float(exact)) < 1e-9


def test_lp_one_tet_instances_match_oracle():
    # all 27 1-tet gluings: verdicts must match the exact re-solve
    specs = T.search_gluings(1, T.any_gluing)
    assert len(specs) == 27
    seen = set()
    for spec in specs:
        tri = T.build(spec, enforce_link_hypothesis=False)
        lp = A.lp_feasibility(tri)
        exact = exact_lp_epsilon(tri)
        assert lp.feasible == (exact is not None and exact > 0)
        if exact is not None:
            assert abs(lp.epsilon - math.pi * float(exact)) < 1e-9
        seen.add(lp.feasible)


# Sampled draws for the exact oracle: random.Random(1), 22 draws of
# n = 3..12.  Three have eps* = -pi, three eps* = 0, sixteen are feasible.
ORACLE_SIZES = tuple(n for n in range(3, 9) for _ in range(3)) + (9, 10, 11, 12)


def test_lp_sampled_draws_match_oracle(sampler):
    # lp_feasibility has no row per angle; the oracle is the 10n-row LP.
    # Both must reach the same optimum and so the same verdict.
    rng = random.Random(1)
    optima = []
    for n in ORACLE_SIZES:
        tri = sampler.sample(n, rng)[0]
        lp = A.lp_feasibility(tri)
        exact = exact_lp_epsilon(tri)
        assert lp.feasible == (exact > 0)
        assert abs(lp.epsilon - math.pi * float(exact)) <= 1e-9 * math.pi
        optima.append(exact)
    assert optima.count(Fraction(-1)) == optima.count(Fraction(0)) == 3


def test_lp_witness_substitution(census_tri):
    lp = A.lp_feasibility(census_tri)
    w = lp.witness
    A.validate_assignment(w)
    sums = A.edge_sums(w)
    assert np.abs(sums - 2 * math.pi).max() < 1e-12
    eps = lp.epsilon
    for t in range(2):
        for v in range(4):
            s = sum(w.angles[t][e] for e in VERTEX_EDGES[v])
            assert s <= math.pi - eps + 1e-12
        assert w.angles[t].min() >= eps - 1e-12


def _loop_rows(tri):
    """The LP's rows over (b, ep, em), a = b + ep, one Python row at a time:
    each edge class's corners plus valence * ep, then each vertex's three
    corners plus 4 ep - em."""
    nA = 6 * tri.tet_count
    ncols = nA + 2
    iep, iem = nA, nA + 1
    eq_rows, eq_rhs = [], []
    for ec in tri.edge_classes:
        row = np.zeros(ncols)
        for (t, e) in ec.corners:
            row[6 * t + e] = 1.0
        row[iep] = len(ec.corners)
        eq_rows.append(row)
        eq_rhs.append(2 * math.pi)
    ub_rows, ub_rhs = [], []
    for t in range(tri.tet_count):
        for v in range(4):
            row = np.zeros(ncols)
            for e in VERTEX_EDGES[v]:
                row[6 * t + e] = 1.0
            row[iep], row[iem] = 4.0, -1.0
            ub_rows.append(row)
            ub_rhs.append(math.pi)
    return (np.array(eq_rows), np.array(eq_rhs),
            np.array(ub_rows), np.array(ub_rhs))


@pytest.mark.parametrize("tri_fixture", ["census_tri", "multi_tri", "ntet12_tri"])
def test_lp_inequalities_match_row_loop(tri_fixture, request, monkeypatch):
    tri = request.getfixturevalue(tri_fixture)
    seen = {}
    solve = simplex.solve_lp

    def spy(c, **kw):
        seen.update(kw, c=c)
        return solve(c, **kw)

    monkeypatch.setattr(simplex, "solve_lp", spy)
    A.lp_feasibility(tri)
    ref = dict(zip(("A_eq", "b_eq", "A_ub", "b_ub"), _loop_rows(tri)))
    for key, want in ref.items():
        assert np.array_equal(seen[key], want), key
    c = np.zeros(6 * tri.tet_count + 2)
    c[-2:] = -1.0, 1.0
    assert np.array_equal(seen["c"], c)


def test_lp_one_edge_128_regular_witness(one_edge128_tri):
    # The 6n angles of a one-edge gluing sum to 2*pi, so no margin exceeds
    # their mean pi/(3n), and the regular structure attains it.  At n = 128
    # the tableau is 514 x 1284 and the LP takes 12 pivots (7, 0, 5).
    tri = one_edge128_tri
    assert (tri.tet_count, tri.n_edges) == (128, 1)
    lp = A.lp_feasibility(tri)
    assert lp.feasible
    assert abs(lp.epsilon - math.pi / 384) < 1e-9
    assert lp.phase_pivots == (7, 0, 5)
    assert np.abs(lp.witness.angles - math.pi / 384).max() <= 1e-12
    A.validate_assignment(lp.witness)


def test_lp_witness_meets_its_definition(sampler):
    # The feasible multi-edge draws among 60 of n = 3..16.  On 6 of the 20
    # the optimal face is not a point, and Bland's rule ends at another
    # vertex of it than on the 10n-row LP (up to 2.7 rad away); any point
    # of the face is a witness, and leads volmax to the energy minimum.
    rng = random.Random(3)
    checked = moved = 0
    for _ in range(60):
        tri = sampler.sample(rng.randrange(3, 17), rng)[0]
        lp = A.lp_feasibility(tri)
        if not lp.feasible or tri.n_edges == 1:
            continue
        w, eps = lp.witness.angles, lp.epsilon
        A.validate_assignment(lp.witness)
        assert w.min() >= eps - 1e-12
        assert w[:, np.array(VERTEX_EDGES)].sum(axis=2).max() <= math.pi - eps + 1e-12
        c, kw = ten_n_row_angle_lp(tri)
        old = simplex.solve_lp(c, **kw).x[:w.size].reshape(w.shape)
        moved += np.abs(old - w).max() > 1e-6
        m, _ = D.minimize_energy(M.ConeMetric(tri=tri, x=np.ones(tri.n_edges)))
        _, rep = A.maximize_volume(tri, lp.witness)
        assert np.abs(m.x[M.class_matrix(tri)] - rep.lengths).max() <= 1e-6
        checked += 1
    assert (checked, moved) == (20, 6)


@pytest.mark.parametrize("n", [32, 64])
def test_lp_one_edge_witness_is_regular(n, sampler):
    # One edge class: the optimal face is the single point pi/(3n).
    tri = sampler.sample(n, random.Random(1), one_edge=True)[0]
    lp = A.lp_feasibility(tri)
    assert abs(lp.epsilon - math.pi / (3 * n)) < 1e-9
    assert np.abs(lp.witness.angles - math.pi / (3 * n)).max() <= 1e-12


def test_lp_determinism(census_tri):
    a = A.lp_feasibility(census_tri)
    b = A.lp_feasibility(census_tri)
    assert a.epsilon == b.epsilon
    assert np.array_equal(a.witness.angles, b.witness.angles)


def test_symmetric_assignment_is_feasible(census_tri):
    sym = A.AngleAssignment(tri=census_tri, angles=np.full((2, 6), math.pi / 6))
    A.validate_assignment(sym)
    assert np.abs(A.edge_sums(sym) - 2 * math.pi).max() <= 1e-12


def test_validate_assignment_rejects(census_tri):
    bad = np.full((2, 6), math.pi / 6)
    bad[0, 0] += 0.01  # breaks the edge-sum equality
    with pytest.raises(ValueError):
        A.validate_assignment(A.AngleAssignment(tri=census_tri, angles=bad))
    vs = np.full((2, 6), math.pi / 3)  # vertex sums hit pi
    with pytest.raises(ValueError):
        A.validate_assignment(A.AngleAssignment(tri=census_tri, angles=vs))


def test_realize_symmetric_witness(census_tri):
    sym = A.AngleAssignment(tri=census_tri, angles=np.full((2, 6), math.pi / 6))
    A.validate_assignment(sym)
    lengths = tetgeom.lengths_from_angles(sym.angles)
    assert np.abs(lengths - XSTAR).max() < 1e-10
    assert census_tri.quotient.spread(lengths).max() < 1e-12


def test_realize_asymmetric_spread(census_tri, rng):
    from hyperideal.angles import _project_gradient
    base = np.full((2, 6), math.pi / 6)
    d = _project_gradient(Quotient(census_tri), rng.normal(size=(2, 6)))
    assign = A.AngleAssignment(tri=census_tri,
                               angles=base + 0.02 * d / np.abs(d).max())
    A.validate_assignment(assign)
    lengths = tetgeom.lengths_from_angles(assign.angles)
    assert np.isfinite(lengths).all()
    assert census_tri.quotient.spread(lengths).max() > 0


def test_maximize_volume_from_witness(census_tri):
    lp = A.lp_feasibility(census_tri)
    opt, rep = A.maximize_volume(census_tri, lp.witness)
    assert rep.max_spread < 1e-6
    assert np.abs(rep.lengths - XSTAR).max() < 1e-6
    # the symmetric witness is already the critical point
    assert rep.iterations == 0
    assert rep.grad_norm < 1e-8


def test_maximize_volume_from_perturbed_start(census_tri, rng):
    from hyperideal.angles import _project_gradient
    base = np.full((2, 6), math.pi / 6)
    d = _project_gradient(Quotient(census_tri), rng.normal(size=(2, 6)))
    start = A.AngleAssignment(tri=census_tri,
                              angles=base + 0.03 * d / np.abs(d).max())
    opt, rep = A.maximize_volume(census_tri, start)
    assert rep.iterations > 0
    assert rep.max_spread < 1e-6
    assert np.abs(rep.lengths - XSTAR).max() < 1e-6
    # cross-check against the Newton minimizer's metric
    m_opt, _ = D.minimize_energy(census_metric(census_tri))
    assert np.abs(rep.lengths - m_opt.x[0]).max() < 1e-6


def test_maximize_volume_past_the_volume_resolution(ntet12_tri, sampler):
    # the gradient is still above tol when the predicted gain of a step
    # falls below the float resolution of the volume; the ascent must not
    # stall there comparing rounding noise.  On the 8-tet draw, from the
    # 10n-row LP's witness, the ninth Newton step predicts a gain of -7e-16
    # at gradient norm 5.5e-8: taken on feasibility alone it converges,
    # while the sufficient-increase test alone crawls on for 9 more
    # iterations.  From lp_feasibility's witness the same draw takes six
    # damped steps, then six full ones.
    for tri in (ntet12_tri, sampler.sample(8, random.Random(5026))[0]):
        c, kw = ten_n_row_angle_lp(tri)
        x = simplex.solve_lp(c, **kw).x
        start = A.AngleAssignment(tri=tri, angles=x[:6 * tri.tet_count].reshape(-1, 6))
        opt, rep = A.maximize_volume(tri, start)
        assert rep.iterations <= 10
        assert rep.grad_norm < 1e-8
        assert rep.max_spread <= 1e-6
        opt, rep = A.maximize_volume(tri, A.lp_feasibility(tri).witness)
        assert rep.grad_norm < 1e-8
        assert rep.max_spread <= 1e-6


def test_maximize_volume_certifies_its_newton_matrix(census_tri, rng,
                                                      monkeypatch):
    # a negated angle Jacobian makes QJQ^T negative definite; the Cholesky
    # certificate must report it instead of stepping along the wrong way
    from hyperideal import tetgeom
    from hyperideal.angles import _project_gradient
    from hyperideal.errors import DefinitenessError
    base = np.full((2, 6), math.pi / 6)
    d = _project_gradient(Quotient(census_tri), rng.normal(size=(2, 6)))
    jacobian = tetgeom._jacobian
    monkeypatch.setattr(tetgeom, "_jacobian", lambda pl: -jacobian(pl))
    start = A.AngleAssignment(tri=census_tri,
                              angles=base + 0.03 * d / np.abs(d).max())
    with pytest.raises(DefinitenessError):
        A.maximize_volume(census_tri, start)


def test_maximize_volume_does_not_jam_at_a_face(sampler):
    # From the LP witness of this 48-tet draw the full Newton steps leave the
    # polytope; backtracking along them alone drives one angle to 1e-18 in
    # 20 steps until the line search fails.  The maximum is interior: a
    # projected gradient ascent alone reaches volume 40.02664604111683 (spread
    # 9.6e-9) in 104 iterations.
    rng = random.Random(1005)
    for n in (8, 16, 24, 32, 48):
        tri = sampler.sample(n, rng)[0]
    lp = A.lp_feasibility(tri)
    opt, rep = A.maximize_volume(tri, lp.witness)
    assert rep.iterations <= 10
    assert rep.max_spread <= 1e-6
    assert abs(rep.objective - 40.02664604111683) < 1e-12


def test_maximize_volume_objective_ascends(census_tri, rng):
    from hyperideal.angles import _project_gradient, total_volume
    base = np.full((2, 6), math.pi / 6)
    d = _project_gradient(Quotient(census_tri), rng.normal(size=(2, 6)))
    start = A.AngleAssignment(tri=census_tri,
                              angles=base + 0.03 * d / np.abs(d).max())
    opt, rep = A.maximize_volume(census_tri, start)
    assert rep.objective >= total_volume(start) - 1e-12


def test_maximize_volume_rejects_infeasible_start(census_tri):
    bad = A.AngleAssignment(tri=census_tri, angles=np.full((2, 6), math.pi / 3))
    with pytest.raises(ValueError):
        A.maximize_volume(census_tri, bad)


def test_maximize_volume_takes_only_an_assignment_of_its_gluing(census_tri,
                                                                torus_tri):
    rows = np.full((2, 6), math.pi / 6)
    for start in (rows, A.AngleAssignment(tri=torus_tri, angles=rows)):
        with pytest.raises(ValueError, match="AngleAssignment of the same gluing"):
            A.maximize_volume(census_tri, start)


@pytest.mark.parametrize("tol", [0.0, float("nan"), float("inf")])
def test_maximize_volume_rejects_bad_tolerance(census_tri, tol):
    start = A.AngleAssignment(tri=census_tri, angles=np.full((2, 6), math.pi / 6))
    with pytest.raises(ValueError):
        A.maximize_volume(census_tri, start, tol=tol)


def test_segment_concavity(census_tri, rng):
    from hyperideal.angles import _project_gradient, total_volume
    base = np.full((2, 6), math.pi / 6)
    worst = -np.inf
    used = 0
    for _ in range(40):
        d = _project_gradient(Quotient(census_tri), rng.normal(size=(2, 6)))
        d *= 0.05 / np.abs(d).max()
        try:
            ends = [A.AngleAssignment(tri=census_tri, angles=base + s * d)
                    for s in (-1.0, 0.0, 1.0)]
            for e in ends:
                A.validate_assignment(e)
        except ValueError:
            continue
        vm, v0, vp = (total_volume(e) for e in ends)
        worst = max(worst, vm + vp - 2 * v0)
        used += 1
    assert used >= 20
    assert worst <= 1e-8
