"""Angle structures: LP feasibility, realization, volume maximization.

The LP is cross-checked by an exact rational re-solve: with angles measured
in units of pi the constraint data are all small rationals, so a Fraction
simplex computes the true optimal slack with no rounding at all.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from hyperideal import angles as A
from hyperideal import dynamics as D
from hyperideal import triangulation as T
from hyperideal.errors import ConvergenceError
from hyperideal.tetgeom import VERTEX_EDGES

from conftest import XSTAR, census_metric


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

    def pivot(rows, basis, pr, pc):
        pv = rows[pr][pc]
        rows[pr] = [v / pv for v in rows[pr]]
        for i, r in enumerate(rows):
            if i != pr and r[pc] != 0:
                f = r[pc]
                rows[i] = [a - f * b for a, b in zip(r, rows[pr])]
        basis[pr] = pc

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
            pivot(rows, basis, pr, enter)
            f = obj[enter]
            obj[:] = [a - f * b for a, b in zip(obj, rows[pr])]

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
    # first few 1-tet gluings: verdicts must match the exact re-solve
    specs = T.search_gluings(1, T.any_gluing)[:6]
    seen = set()
    for spec in specs:
        tri = T.build(spec, enforce_link_hypothesis=False)
        lp = A.lp_feasibility(tri)
        exact = exact_lp_epsilon(tri)
        assert lp.feasible == (exact is not None and exact > 0)
        if exact is not None:
            assert abs(lp.epsilon - math.pi * float(exact)) < 1e-9
        seen.add(lp.feasible)


def test_lp_witness_substitution(census_tri):
    lp = A.lp_feasibility(census_tri)
    w = lp.witness
    A.validate_assignment(w, eq_tol=1e-12)
    sums = A.edge_sums(w)
    assert np.abs(sums - 2 * math.pi).max() < 1e-12
    eps = lp.epsilon
    for t in range(2):
        for v in range(4):
            s = sum(w.angles[t][e] for e in VERTEX_EDGES[v])
            assert s <= math.pi - eps + 1e-12
        assert w.angles[t].min() >= eps - 1e-12


def test_lp_determinism(census_tri):
    a = A.lp_feasibility(census_tri)
    b = A.lp_feasibility(census_tri)
    assert a.epsilon == b.epsilon
    assert np.array_equal(a.witness.angles, b.witness.angles)


def test_symmetric_assignment_is_feasible(census_tri):
    sym = A.AngleAssignment(tri=census_tri, angles=np.full((2, 6), math.pi / 6))
    A.validate_assignment(sym, eq_tol=1e-12)


def test_validate_assignment_rejects(census_tri):
    bad = np.full((2, 6), math.pi / 6)
    bad[0, 0] += 0.01  # breaks the edge-sum equality
    with pytest.raises(ValueError):
        A.validate_assignment(A.AngleAssignment(tri=census_tri, angles=bad),
                              eq_tol=1e-9)
    vs = np.full((2, 6), math.pi / 3)  # vertex sums hit pi
    with pytest.raises(ValueError):
        A.validate_assignment(A.AngleAssignment(tri=census_tri, angles=vs),
                              eq_tol=1e-9)


def test_realize_symmetric_witness(census_tri):
    sym = A.AngleAssignment(tri=census_tri, angles=np.full((2, 6), math.pi / 6))
    real = A.realize_structure(sym)
    assert np.abs(real.lengths - XSTAR).max() < 1e-10
    assert real.max_spread < 1e-12


def test_realize_asymmetric_spread(census_tri, rng):
    from hyperideal.angles import _project_gradient
    base = np.full((2, 6), math.pi / 6)
    d = _project_gradient(census_tri, rng.normal(size=(2, 6)))
    assign = A.AngleAssignment(tri=census_tri,
                               angles=base + 0.02 * d / np.abs(d).max())
    real = A.realize_structure(assign)
    assert np.isfinite(real.lengths).all()
    assert real.max_spread > 0


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
    d = _project_gradient(census_tri, rng.normal(size=(2, 6)))
    start = A.AngleAssignment(tri=census_tri,
                              angles=base + 0.03 * d / np.abs(d).max())
    opt, rep = A.maximize_volume(census_tri, start)
    assert rep.iterations > 0
    assert rep.max_spread < 1e-6
    assert np.abs(rep.lengths - XSTAR).max() < 1e-6
    # cross-check against the Newton minimizer's metric
    m_opt, _ = D.minimize_energy(census_metric(census_tri))
    assert np.abs(rep.lengths - m_opt.x[0]).max() < 1e-6


def test_maximize_volume_objective_ascends(census_tri, rng):
    from hyperideal.angles import _project_gradient, total_volume
    base = np.full((2, 6), math.pi / 6)
    d = _project_gradient(census_tri, rng.normal(size=(2, 6)))
    start = A.AngleAssignment(tri=census_tri,
                              angles=base + 0.03 * d / np.abs(d).max())
    opt, rep = A.maximize_volume(census_tri, start)
    assert rep.objective >= total_volume(start) - 1e-12


def test_maximize_volume_rejects_infeasible_start(census_tri):
    bad = A.AngleAssignment(tri=census_tri, angles=np.full((2, 6), math.pi / 3))
    with pytest.raises(ValueError):
        A.maximize_volume(census_tri, bad)


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
        d = _project_gradient(census_tri, rng.normal(size=(2, 6)))
        d *= 0.05 / np.abs(d).max()
        try:
            ends = [A.AngleAssignment(tri=census_tri, angles=base + s * d)
                    for s in (-1.0, 0.0, 1.0)]
            for e in ends:
                A.validate_assignment(e, eq_tol=1e-9)
        except ValueError:
            continue
        vm, v0, vp = (total_volume(e) for e in ends)
        worst = max(worst, vm + vp - 2 * v0)
        used += 1
    assert used >= 20
    assert worst <= 1e-8
