"""Acceptance run: one test per numbered criterion, at the stated tolerances.

Every test prints a single `criterion NN: PASS/FAIL` line directly to the
terminal (bypassing capture) and then asserts, so a bare `pytest -v` shows
both the verdict lines and the usual pass/fail roll-up.  Oracles that the
criteria call for (bisection for the regular equilibrium, the Minkowski
angle recomputation) are independent of the code paths under test.
"""

import json
import math

import numpy as np
import pytest

from hyperideal import angles as A
from hyperideal import cli
from hyperideal import dynamics as D
from hyperideal import metric as M
from hyperideal import serialize
from hyperideal import tetgeom
from hyperideal import triangulation as tri_mod

from conftest import (CENSUS_JSON, census_metric, sample_admissible,
                      schlafli_leg, state)


def _verdict(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bisect_regular_equilibrium(angle, lo=1e-3, hi=5.0, tol=1e-14):
    """Solve cos(angle) = cosh x / (2 cosh x - 1) by bisection."""
    def f(x):
        return math.cos(angle) - math.cosh(x) / (2.0 * math.cosh(x) - 1.0)
    assert f(lo) < 0 < f(hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.fixture(scope="module")
def census_equilibrium(census_tri):
    """Converged flow from the unit metric, shared by criteria 5 and 8."""
    trace = D.flow(census_metric(census_tri), D.FlowConfig())
    assert trace.status == "converged"
    return trace


def test_criterion_01_pipeline_oracle_equivalence(capsys):
    rng = np.random.default_rng(101)
    draws = np.exp(rng.uniform(np.log(0.02), np.log(8.0), size=(1000, 6)))
    worst = 0.0
    admissible = 0
    for x in draws:
        trig = bool(tetgeom.is_admissible(x))
        oracle = tetgeom.minkowski_oracle(x)
        assert trig == (oracle is not None), f"classification split at {x}"
        if trig:
            admissible += 1
            worst = max(worst, float(
                np.abs(oracle - tetgeom.angles_from_lengths(x)).max()))
    _verdict(capsys, 1, worst < 1e-9,
             f"1000 tuples, {admissible} admissible, identical verdicts, "
             f"max angle gap {worst:.2e} (< 1e-9)")


def test_criterion_02_angle_length_jacobian(capsys):
    rng = np.random.default_rng(102)
    # h small enough that FD truncation stays below 1e-6 even at the
    # near-degenerate shapes the sampler occasionally draws
    h = 1e-6
    asym = fd_err = inv_asym = 0.0
    min_eig = min_inv_eig = np.inf
    for x in sample_admissible(rng, 500):
        J = tetgeom.jacobian_angles_lengths(x)
        fd = np.zeros((6, 6))
        for j in range(6):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (tetgeom.angles_from_lengths(xp)
                        - tetgeom.angles_from_lengths(xm)) / (2 * h)
        asym = max(asym, float(np.abs(J - J.T).max()))
        fd_err = max(fd_err, float(np.abs(J - fd).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(0.5 * (J + J.T)).min()))
        Jinv = np.linalg.inv(J)
        inv_asym = max(inv_asym, float(np.abs(Jinv - Jinv.T).max()))
        min_inv_eig = min(min_inv_eig, float(
            np.linalg.eigvalsh(0.5 * (Jinv + Jinv.T)).min()))
    ok = asym < 1e-8 and min_eig > 0 and fd_err < 1e-6 \
        and inv_asym < 1e-8 and min_inv_eig > 0
    _verdict(capsys, 2, ok,
             f"500 shapes, asym {asym:.1e} (< 1e-8), min eig {min_eig:.2e} "
             f"(> 0), FD gap {fd_err:.1e} (< 1e-6), inverse SPD "
             f"(asym {inv_asym:.1e}, min eig {min_inv_eig:.2e})")


def test_criterion_03_schlafli_formula(capsys):
    rng = np.random.default_rng(103)
    h = 1e-5
    grad_err = 0.0
    for x in sample_admissible(rng, 100):
        a = tetgeom.angles_from_lengths(x)
        for j in range(6):
            ap, am = a.copy(), a.copy()
            ap[j] += h
            am[j] -= h
            fd = (tetgeom.schlafli_potential_of_angles(ap)
                  - tetgeom.schlafli_potential_of_angles(am)) / (2 * h)
            grad_err = max(grad_err, abs(fd - (-x[j] / 2)))
    path_err = 0.0
    ref = tetgeom.REF_ANGLES
    for x in sample_admissible(rng, 20):
        a = tetgeom.angles_from_lengths(x)
        direct = tetgeom.schlafli_potential_of_angles(a)
        lam = 0.3 + 0.4 * rng.random()
        mid = (1 - lam) * ref + lam * a
        two_leg = schlafli_leg(ref, mid) + schlafli_leg(mid, a)
        path_err = max(path_err, abs(two_leg - direct))
    ok = grad_err < 1e-6 and path_err < 2e-9
    _verdict(capsys, 3, ok,
             f"100 shapes, FD gradient vs -x/2 gap {grad_err:.1e} (< 1e-6); "
             f"20 two-path probes, worst gap {path_err:.1e} (< 2e-9)")


def test_criterion_04_assembled_jacobian_and_flow_monotonicity(capsys):
    spec = tri_mod.search_gluings(2, tri_mod.single_hyperbolic_class)[0]
    assert spec.to_json_obj() == CENSUS_JSON
    tri = tri_mod.build(spec)
    rng = np.random.default_rng(104)
    max_eig = -np.inf
    asym = 0.0
    for v in rng.uniform(0.1, 5.0, size=100):
        J = state(census_metric(tri, float(v))).jacobian()
        asym = max(asym, float(np.abs(J - J.T).max()))
        max_eig = max(max_eig, float(np.linalg.eigvalsh(0.5 * (J + J.T)).max()))
    cfg = D.FlowConfig()
    bound = 10.0 * (cfg.rtol + cfg.atol)
    curv_rise = h_rise = rate_err = 0.0
    m = census_metric(tri)
    for v in rng.uniform(0.3, 2.5, size=10):
        trace = D.flow(census_metric(tri, float(v)), cfg)
        assert trace.status == "converged"
        curv_rise = max(curv_rise, float(np.diff(trace.total_curv).max()))
        h_rise = max(h_rise, float(np.diff(trace.H).max()))
        # chain rule dK/dt = J K, finite-differenced along the K direction
        for idx in (1, len(trace.t) // 2):
            x, K = trace.x[idx], trace.K[idx]
            J = state(m.with_lengths(x)).jacobian()
            fd = (state(m.with_lengths(x + 1e-5 * K)).K
                  - state(m.with_lengths(x - 1e-5 * K)).K) / 2e-5
            rate_err = max(rate_err, float(
                np.abs(fd - J @ K).max() / max(1.0, np.abs(K).max())))
    ok = asym < 1e-12 and max_eig < 0 and curv_rise < bound \
        and h_rise < bound and rate_err < 1e-6
    _verdict(capsys, 4, ok,
             f"search instance, 100 metrics: dK/dx symmetric ND (max eig "
             f"{max_eig:.2e}); 10 trajectories: worst rises sum K^2 "
             f"{curv_rise:.1e}, H {h_rise:.1e} (< {bound:.0e}); "
             f"dK/dt vs J K gap {rate_err:.1e}")


def test_criterion_05_flow_equilibrium_attractor_newton(capsys, census_tri,
                                                        census_equilibrium):
    trace = census_equilibrium
    x_star = _bisect_regular_equilibrium(math.pi / 6)
    k_inf = float(np.abs(trace.K[-1]).max())
    gap = abs(float(trace.x[-1][0]) - x_star)
    m_eq = census_metric(census_tri).with_lengths(trace.x[-1])
    att = D.attractor_experiment(m_eq, radius=0.01, trials=50, seed=105)
    m_opt, rep = D.minimize_energy(census_metric(census_tri))
    newton_gap = abs(float(m_opt.x[0]) - x_star)
    ok = k_inf < 1e-12 and gap < 1e-8 and att.fraction == 1.0 \
        and rep.iterations <= 20 and newton_gap < 1e-10
    _verdict(capsys, 5, ok,
             f"flow |K| {k_inf:.1e} (< 1e-12), vs bisection {gap:.1e} "
             f"(< 1e-8); attractor {att.recovered}/50 recovered; Newton "
             f"{rep.iterations} iters, gap {newton_gap:.1e} (< 1e-10)")


def test_criterion_06_rigidity_singular_values(capsys, census_tri, torus_tri):
    rng = np.random.default_rng(106)
    metrics = [census_metric(census_tri, float(v))
               for v in rng.uniform(0.1, 5.0, size=100)]
    kept = 0
    while kept < 40:
        x = rng.uniform(0.4, 2.0, size=2)
        m = M.ConeMetric(tri=torus_tri, x=x)
        if M.evaluate(torus_tri, x).margin()[0] > 0:
            metrics.append(m)
            kept += 1
    worst = np.inf
    for m in metrics:
        rep = D.rigidity_probe(m)
        worst = min(worst, rep.sigma_min / rep.sigma_max)
    _verdict(capsys, 6, worst > 1e-12,
             f"{len(metrics)} metrics on two instances, worst "
             f"sigma_min/sigma_max {worst:.2e} (> 1e-12)")


def test_criterion_07_lp_feasibility_witness(capsys, census_tri):
    lp = A.lp_feasibility(census_tri)
    eps = lp.epsilon
    w = lp.witness.angles
    sums_ok = float(np.abs(A.edge_sums(lp.witness) - 2 * math.pi).max()) < 1e-9
    margin_ok = bool(w.min() >= eps - 1e-12 and
                     tetgeom.vertex_angle_sums(w).max() <= math.pi - eps + 1e-12)
    A.validate_assignment(lp.witness)
    sym = A.AngleAssignment(tri=census_tri, angles=np.full((2, 6), math.pi / 6))
    A.validate_assignment(sym)
    sym_ok = float(np.abs(A.edge_sums(sym) - 2 * math.pi).max()) < 1e-12 \
        and float(tetgeom.vertex_angle_sums(sym.angles).max()) < math.pi
    ok = lp.feasible and eps > 0 and sums_ok and margin_ok and sym_ok
    _verdict(capsys, 7, ok,
             f"feasible, eps {eps:.10f} (pi/6 = {math.pi / 6:.10f}), witness "
             f"substitution holds, symmetric pi/6 assignment feasible")


def test_criterion_08_volume_maximization(capsys, census_tri,
                                          census_equilibrium):
    from hyperideal.angles import _project_gradient, total_volume
    rng = np.random.default_rng(108)
    base = np.full((2, 6), math.pi / 6)
    d = _project_gradient(M.Quotient(census_tri), rng.normal(size=(2, 6)))
    start = A.AngleAssignment(tri=census_tri,
                              angles=base + 0.03 * d / np.abs(d).max())
    opt, rep = A.maximize_volume(census_tri, start)
    x_flow = float(census_equilibrium.x[-1][0])
    metric_gap = float(np.abs(rep.lengths - x_flow).max())
    worst = -np.inf
    used = 0
    for _ in range(400):
        d = _project_gradient(M.Quotient(census_tri), rng.normal(size=(2, 6)))
        d *= 0.04 / np.abs(d).max()
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
    ok = rep.max_spread < 1e-6 and metric_gap < 1e-6 \
        and used >= 200 and worst <= 1e-8
    _verdict(capsys, 8, ok,
             f"spread {rep.max_spread:.1e} (< 1e-6), vs flow metric "
             f"{metric_gap:.1e} (< 1e-6); {used} concavity probes, worst "
             f"second difference {worst:.1e} (<= 1e-8)")


def test_criterion_09_nonconvexity_witness_persisted(capsys, tmp_path):
    probe = tetgeom.probe_length_space_convexity(1500, seed=0)
    path = tmp_path / "witnesses.json"
    serialize.write_json(path, probe.to_json_obj())
    stored = serialize.load_json(path)
    count = stored["witness_count"]
    verified = 0
    for pair in stored["witnesses"]:
        x0, x1 = (np.array(w, dtype=float) for w in pair)
        if tetgeom.is_admissible(x0) and tetgeom.is_admissible(x1) \
                and not tetgeom.is_admissible(0.5 * (x0 + x1)):
            verified += 1
    ok = count >= 1 and verified == count
    _verdict(capsys, 9, ok,
             f"{count} midpoint-inadmissible pairs persisted to JSON and "
             f"re-verified after reload")


def test_criterion_10_determinism_byte_identical(capsys, tmp_path):
    tri = tmp_path / "census.json"
    tri.write_text(json.dumps(CENSUS_JSON))
    met = tmp_path / "m.json"
    met.write_text(json.dumps({"lengths": [1.0]}))
    commands = {
        "validate": ["validate", "--tri", str(tri)],
        "search": ["search", "--tets", "2", "--filter", "census", "--first"],
        "shapes": ["shapes", "--tri", str(tri), "--metric", str(met)],
        "flow": ["flow", "--tri", str(tri), "--metric", str(met)],
        "minimize": ["minimize", "--tri", str(tri), "--metric", str(met)],
        "lp": ["lp", "--tri", str(tri)],
        "volmax": ["volmax", "--tri", str(tri)],
        "propsuite": ["propsuite", "--seed", "3", "--probe-trials", "800"],
    }
    runs = []
    for tag in ("a", "b"):
        outputs = {}
        for name, argv in commands.items():
            ext = ".csv" if name == "flow" else ".json"
            out = str(tmp_path / f"{name}_{tag}{ext}")
            assert cli.main(argv + ["--out", out]) == 0, name
            outputs[name] = open(out, "rb").read()
            if name == "flow":
                outputs["flow_status"] = open(out + ".status.json",
                                              "rb").read()
            man = json.loads(open(out + ".manifest.json").read())
            man.pop("started"), man.pop("finished")
            outputs[name + "_manifest"] = json.dumps(man)
        runs.append(outputs)
    mismatched = [k for k in runs[0] if runs[0][k] != runs[1][k]]
    _verdict(capsys, 10, not mismatched,
             f"{len(commands)} commands rerun byte-identical "
             f"(mismatches: {mismatched or 'none'})")
