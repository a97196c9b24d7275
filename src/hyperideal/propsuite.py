"""Cross-module invariant battery.

Runs every structural identity the modules promise (quotient-map
accounting, Jacobian definiteness both ways, exactness of the volume
differential, oracle agreement, Lyapunov monotonicity, LP witness
substitution, concavity, KKT spreads, determinism) on seeded random
samples plus the canonical census instance, and reports one named check
per property.  The CLI exposes it as `propsuite`; a non-empty violation
list is an error exit there.  The Minkowski-model oracle and the
length-space convexity probe live here, since only the battery uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import angles as angles_mod
from . import dynamics, metric as metric_mod, tetgeom
from . import triangulation as tri_mod

ORACLE_TOL = 1e-9                  # cofactor map vs Minkowski oracle
PROBE_LOW, PROBE_HIGH = 0.02, 8.0  # convexity probe draws, log-uniform
_MINK_METRIC = np.array([-1.0, 1.0, 1.0, 1.0])
_EIG_GUARD = 1e-12


def minkowski_oracle(x):
    """Recompute the dihedral angles from the Gram matrix, or None if inadmissible.

    Independent of the pipeline's cofactor formulas: form the symmetric
    matrix G with unit diagonal and G_vw = -cosh x_vw, demand Lorentz
    signature (3, 1) from its eigenvalues, embed the four vertex rays in
    Minkowski space, take space-like face normals and read angles off their
    inner products.  Used only for cross-validation.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (6,):
        raise ValueError("oracle takes a single length vector")
    tetgeom.validate_lengths(x)
    G = np.eye(4)
    for e, (v, w) in enumerate(tri_mod.EDGE_VERTEX_PAIRS):
        G[v, w] = G[w, v] = -math.cosh(x[e])
    lam, Q = np.linalg.eigh(G)
    scale = float(np.abs(lam).max())
    if not (lam[0] < -_EIG_GUARD * scale and lam[1] > _EIG_GUARD * scale):
        return None
    P = Q * np.sqrt(np.abs(lam))[None, :]
    normals = np.zeros((4, 4))
    for f in range(4):
        rows = P[[v for v in range(4) if v != f], :]
        _, sv, vh = np.linalg.svd(rows * _MINK_METRIC[None, :])
        n = vh[-1]
        nn = float(np.sum(_MINK_METRIC * n * n))
        if nn <= _EIG_GUARD:
            return None
        n = n / math.sqrt(nn)
        if float(np.sum(_MINK_METRIC * n * P[f])) > 0.0:
            n = -n
        normals[f] = n
    angles = np.zeros(6)
    for e, (v, w) in enumerate(tri_mod.EDGE_VERTEX_PAIRS):
        f1, f2 = [z for z in range(4) if z not in (v, w)]
        c = -float(np.sum(_MINK_METRIC * normals[f1] * normals[f2]))
        if not -1.0 < c < 1.0:
            return None
        angles[e] = math.acos(c)
    return angles


@dataclass(frozen=True)
class ConvexityProbe:
    """Result of sampling length-vector pairs for midpoint inadmissibility."""

    seed: int
    trials: int
    pairs_admissible: int
    witnesses: tuple

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed, "trials": self.trials,
            "low": PROBE_LOW, "high": PROBE_HIGH,
            "pairs_admissible": self.pairs_admissible,
            "witness_count": len(self.witnesses),
            "witnesses": [[list(a), list(b)] for a, b in self.witnesses],
        }


def probe_length_space_convexity(trials: int, seed: int) -> ConvexityProbe:
    """Sample admissible pairs log-uniformly and test their midpoints.

    The admissible set is not convex, so with enough trials some midpoint
    fails; every failing pair is recorded verbatim as a witness.
    """
    if trials < 0:
        raise ValueError("trials must be non-negative")
    witnesses = []
    pairs = 0
    if trials > 0:
        rng = np.random.default_rng(seed)
        draws = np.exp(rng.uniform(math.log(PROBE_LOW), math.log(PROBE_HIGH),
                                   size=(trials, 2, 6)))
        ok = tetgeom._pipeline(draws).ok
        both = ok[:, 0] & ok[:, 1]
        pairs = int(both.sum())
        cand = draws[both]
        mid_ok = tetgeom._pipeline(0.5 * (cand[:, 0] + cand[:, 1])).ok
        for a, b in cand[~mid_ok]:
            witnesses.append((tuple(float(v) for v in a), tuple(float(v) for v in b)))
    return ConvexityProbe(seed=seed, trials=trials,
                          pairs_admissible=pairs, witnesses=tuple(witnesses))


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class PropsuiteReport:
    seed: int
    checks: tuple
    violations: int
    probe: ConvexityProbe

    def to_json_obj(self) -> dict:
        return {
            "seed": self.seed,
            "violations": self.violations,
            "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail}
                       for c in self.checks],
            "convexity_probe": self.probe.to_json_obj(),
        }


def sample_admissible(rng, count: int, low: float = 0.2, high: float = 3.0) -> np.ndarray:
    """Admissible length vectors drawn log-uniformly, in draw order."""
    out = []
    while len(out) < count:
        draws = np.exp(rng.uniform(math.log(low), math.log(high),
                                   size=(4 * count, 6)))
        ok = np.atleast_1d(tetgeom.is_admissible(draws))
        for row in draws[ok]:
            out.append(row)
            if len(out) == count:
                break
    return np.array(out)


def _fd_jacobian(func, x, h=1e-6):
    base = func(x)
    J = np.zeros((base.size, x.size))
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (func(xp) - func(xm)) / (2 * h)
    return J


def schlafli_leg(p, q, order: int = 24) -> float:
    """The integral of -(1/2) x . da along the angle segment p -> q.

    Gauss-Legendre quadrature over the closed-form lengths x(a), so it
    shares no code with the closed-form volume it is compared against.
    """
    z, w = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (z + 1.0)
    x = tetgeom._newton_lengths(p + s[:, None] * (q - p))
    return -0.25 * float(w @ (x @ (q - p)))


def _state(tri, x) -> metric_mod.Evaluation:
    return metric_mod.evaluate(tri, x).raise_if_inadmissible()


def _search_instances():
    """One 2-tet search: (census, census match count, multi-class instance).

    In search order, the census is the first `single_hyperbolic_class`
    gluing and the multi-class instance the first gluing with three or more
    edge classes among the first 200.  Any orientable gluing with several
    edge classes exercises the scatter assembly; its links need not satisfy
    the hypothesis, which the per-tet geometry never sees.
    """
    census = multi = None
    count = seen = 0

    def visit(tri):
        nonlocal census, multi, count, seen
        if tri_mod.single_hyperbolic_class(tri):
            census = census or tri
            count += 1
        if multi is None and seen < 200 and tri.n_edges >= 3:
            multi = tri
        seen += 1
        return False

    tri_mod.search_gluings(2, visit)
    if multi is None:
        raise RuntimeError("no multi-class gluing found")
    return census, count, multi


def run(seed: int = 0, probe_trials: int = 2000, census=None, multi=None,
        oracle_samples: int = 250) -> PropsuiteReport:
    rng = np.random.default_rng(seed)
    checks = []

    def record(name, ok, detail=""):
        checks.append(Check(name=name, ok=bool(ok), detail=detail))

    census_count = None
    if census is None or multi is None:
        found, count, found_multi = _search_instances()
        if census is None:
            census, census_count = found, count
        if multi is None:
            multi = found_multi

    # --- triangulation ---
    rebuilt = tri_mod.build(census.spec)
    record("triangulation.rebuild_idempotent",
           rebuilt.edge_classes == census.edge_classes
           and rebuilt.vertex_classes == census.vertex_classes
           and rebuilt.boundary_links == census.boundary_links)

    ok = True
    for tri in (census, multi):
        total = sum(ec.valence for ec in tri.edge_classes)
        ok &= total == 6 * tri.tet_count
        ok &= all(l.sides * 2 == 3 * l.triangles for l in tri.boundary_links)
        chi_sum = sum(l.chi for l in tri.boundary_links)
        corners = sum(l.corners for l in tri.boundary_links)
        ok &= chi_sum == corners - 6 * tri.tet_count + 4 * tri.tet_count
    record("triangulation.census_accounting", ok,
           f"census search matches: {census_count}" if census_count else "")

    ok = True
    for tri in (census, multi):
        spec = tri.spec
        for t in range(spec.tet_count):
            for f in range(4):
                t2, f2, s = spec.pairing(t, f)
                bt, bf, bs = spec.pairing(t2, f2)
                ok &= (bt, bf) == (t, f)
                ok &= all(bs[s[v]] == v for v in range(4))
    record("triangulation.pairing_involution", ok)

    record("triangulation.census_classes",
           len(census.edge_classes) == 1
           and census.edge_classes[0].valence == 12
           and len(census.boundary_links) == 1
           and census.boundary_links[0].chi < 0,
           f"chi = {census.boundary_links[0].chi}")

    # --- tetgeom ---
    X = sample_admissible(rng, oracle_samples, low=0.1, high=4.0)
    pl = tetgeom._pipeline(X)
    gap = np.abs(pl.sines ** 2 + pl.cosines ** 2 - 1.0).max()
    record("tetgeom.sine_cosine_identity", gap <= 1e-12, f"max |sin^2 + cos^2 - 1| {gap:.3e}")

    worst_fd = worst_sym = 0.0
    min_eig = np.inf
    min_inv_eig = np.inf
    for x in X[:20]:
        J = tetgeom.jacobian_angles_lengths(x)
        F = _fd_jacobian(tetgeom.angles_from_lengths, x)
        worst_fd = max(worst_fd, float(np.abs(J - F).max()))
        worst_sym = max(worst_sym, float(np.abs(J - J.T).max()))
        min_eig = min(min_eig, float(np.linalg.eigvalsh(J).min()))
        min_inv_eig = min(min_inv_eig,
                          float(np.linalg.eigvalsh(np.linalg.inv(J)).min()))
    record("tetgeom.jacobian_spd",
           worst_fd < 1e-6 and worst_sym < 1e-8 and min_eig > 0 and min_inv_eig > 0,
           f"fd {worst_fd:.3e} sym {worst_sym:.3e} eig {min_eig:.3e}")

    worst = 0.0
    for x in X[:40]:
        back = tetgeom.lengths_from_angles(tetgeom.angles_from_lengths(x))
        worst = max(worst, float(np.abs(back - x).max()))
    record("tetgeom.inversion_roundtrip", worst < 1e-9, f"max {worst:.3e}")

    ok = True
    worst = 0.0
    for x in X[:6]:
        g = _fd_jacobian(lambda a: np.array([tetgeom.schlafli_potential_of_angles(a)]),
                         tetgeom.angles_from_lengths(x))[0]
        worst = max(worst, float(np.abs(g + 0.5 * x).max()))
    ok &= worst < 1e-6
    a1 = tetgeom.angles_from_lengths(X[0])
    a2 = tetgeom.angles_from_lengths(X[1])
    mid = 0.5 * (a1 + a2)
    two_leg = schlafli_leg(a1, mid) + schlafli_leg(mid, a2)
    path_gap = abs(two_leg - float(tetgeom.volume(a2) - tetgeom.volume(a1)))
    ok &= path_gap < 2e-9
    record("tetgeom.schlafli_exact", ok,
           f"grad {worst:.3e} path {path_gap:.3e}")

    draws = np.exp(rng.uniform(math.log(0.02), math.log(8.0),
                               size=(oracle_samples, 6)))
    mism = 0
    worst = 0.0
    for x in draws:
        trig_ok = bool(tetgeom.is_admissible(x))
        oracle = minkowski_oracle(x)
        if trig_ok != (oracle is not None):
            mism += 1
        elif trig_ok:
            worst = max(worst, float(np.abs(tetgeom.angles_from_lengths(x)
                                            - oracle).max()))
    record("tetgeom.oracle_agreement",
           mism == 0 and worst < ORACLE_TOL,
           f"mismatches {mism}, max angle gap {worst:.3e}")

    # Regular tetrahedra: cos a = cosh x / (2 cosh x - 1), so a increases
    # from 0 toward pi/3.  The top of the grid stays at 8: beyond that the
    # cosine quotient is a ratio of nearly cancelling terms and the pipeline
    # rightly refuses shapes it cannot resolve.
    grid = np.linspace(0.05, 8.0, 40)
    common = np.array([tetgeom.angles_from_lengths(np.full(6, g))[0] for g in grid])
    formula = np.arccos(np.cosh(grid) / (2 * np.cosh(grid) - 1))
    ok = (np.abs(common - formula).max() < 1e-9
          and np.all(np.diff(common) > 0)
          and tetgeom.angles_from_lengths(np.full(6, 1e-3))[0] < 0.05
          and math.pi / 3 - common[-1] < 1e-3
          and common[-1] < math.pi / 3)
    record("tetgeom.regular_family_monotone", ok)

    probe = probe_length_space_convexity(probe_trials, seed)
    probe2 = probe_length_space_convexity(probe_trials, seed)
    record("tetgeom.convexity_probe",
           len(probe.witnesses) > 0 and probe == probe2,
           f"{len(probe.witnesses)} witnesses from {probe.pairs_admissible} pairs")

    # --- metric ---
    ok = True
    detail = []
    for tri in (census, multi):
        base = np.full(tri.n_edges, 1.0)
        base += 0.05 * rng.standard_normal(tri.n_edges)
        ev = _state(tri, base)
        J = ev.jacobian()
        fd_k = _fd_jacobian(lambda xv, tri=tri: _state(tri, xv).K, base)
        gap_j = float(np.abs(fd_k - J).max())
        fd_g = _fd_jacobian(lambda xv, tri=tri: np.array([_state(tri, xv).H]),
                            base)[0]
        gap_g = float(np.abs(fd_g + ev.K).max())
        sym = float(np.abs(J - J.T).max())
        max_eig = float(np.linalg.eigvalsh(J).max())
        ok &= gap_j < 1e-5 and gap_g < 1e-6 and sym < 1e-8 and max_eig < 0
        detail.append(f"fdJ {gap_j:.2e} fdG {gap_g:.2e} sym {sym:.2e}")
    record("metric.gradient_and_jacobian", ok, "; ".join(detail))

    m1 = metric_mod.ConeMetric(tri=census, x=np.ones(1))
    k_a = _state(census, m1.x).K
    k_b = _state(census, 1.37 * m1.x).K
    record("metric.scale_dependence", float(np.abs(k_a - k_b).max()) > 1e-3,
           f"|K(x) - K(cx)| = {float(np.abs(k_a - k_b).max()):.3e}")

    ok = True
    for tri in (census, multi):
        ev = _state(tri, np.full(tri.n_edges, 1.1))
        J_full = ev.jacobian()
        cm = metric_mod.class_matrix(tri)
        Jt = tetgeom.jacobian_angles_lengths(ev.X)
        lam_full = float(np.linalg.eigvalsh(J_full).max())
        for t in range(tri.tet_count):
            drop = J_full.copy()
            np.add.at(drop, (cm[t][:, None], cm[t][None, :]), Jt[t])
            lam_drop = float(np.linalg.eigvalsh(drop).max())
            if tri is census:
                ok &= lam_drop > lam_full
            else:
                ok &= lam_drop >= lam_full - 1e-12
    record("metric.assembly_ordering", ok)

    # --- dynamics ---
    cfg = dynamics.FlowConfig()
    trace = dynamics.flow(m1.with_lengths(np.full(1, 2.0)), cfg)
    lyap_ok = trace.status == "converged"
    for series in (trace.total_curv, trace.H):
        # a fixed bound, not one read from cfg: a looser rtol must not
        # loosen the check
        bound = 10.0 * (1e-14 + 1e-12 * np.maximum(1.0, np.abs(series[:-1])))
        lyap_ok &= bool(np.all(np.diff(series) <= bound))
    record("dynamics.lyapunov", lyap_ok,
           f"{trace.steps_accepted} steps, status {trace.status}")

    def k_census(xv):
        return _state(census, xv).K

    ok = True
    worst = 0.0
    idx = np.linspace(0, trace.t.size - 1, 6).astype(int)
    for k in idx:
        x = trace.x[k]
        K = k_census(x)
        if float(np.abs(K).max()) < 1e-9:
            continue
        J = _state(census, x).jacobian()
        d = 1e-5
        fd = (k_census(x + d * K) - k_census(x - d * K)) / (2 * d)
        gap = float(np.abs(fd - J @ K).max() / (np.abs(J @ K).max() + 1e-8))
        worst = max(worst, gap)
        ok &= gap < 1e-5
    record("dynamics.heat_equation", ok, f"worst relative gap {worst:.3e}")

    m_min, rep = dynamics.minimize_energy(m1, tol=1e-12)
    gap = float(np.abs(trace.x[-1] - m_min.x).max())
    record("dynamics.solver_agreement", gap < 1e-7,
           f"flow vs Newton gap {gap:.3e} ({rep.iterations} Newton steps)")

    t1 = dynamics.flow(m1.with_lengths(np.full(1, 1.3)), cfg)
    t2 = dynamics.flow(m1.with_lengths(np.full(1, 1.3)), cfg)
    record("dynamics.determinism",
           np.array_equal(t1.t, t2.t) and np.array_equal(t1.x, t2.x)
           and np.array_equal(t1.H, t2.H) and t1.status == t2.status)

    rig = dynamics.rigidity_probe(m_min)
    record("dynamics.rigidity", rig.nonsingular and rig.sigma_min > 0,
           f"sigma_min {rig.sigma_min:.3e}")

    # --- angles ---
    lp = angles_mod.lp_feasibility(census)
    lp2 = angles_mod.lp_feasibility(census)
    ok = lp.feasible and lp.epsilon is not None and lp.epsilon > 0 and lp2.feasible
    if ok:
        angles_mod.validate_assignment(lp.witness)
        w = lp.witness.angles
        vs = tetgeom.vertex_angle_sums(w)
        sub_margin = min(float(w.min()), float((math.pi - vs).min()))
        ok &= sub_margin >= lp.epsilon - 1e-9
        ok &= lp2.epsilon == lp.epsilon and np.array_equal(lp2.witness.angles, w)
    record("angles.lp_witness", ok, f"epsilon {lp.epsilon!r}")

    best, volrep = angles_mod.maximize_volume(census, lp.witness, tol=1e-8)
    mean_len = float(volrep.lengths.mean())
    ok = (volrep.max_spread < 1e-6
          and abs(mean_len - float(m_min.x[0])) < 1e-6)
    record("angles.volmax_kkt", ok,
           f"spread {volrep.max_spread:.3e}, length gap "
           f"{abs(mean_len - float(m_min.x[0])):.3e}")

    ok = True
    worst = -np.inf
    used = 0
    w0 = lp.witness.angles
    q = census.quotient
    for _ in range(12):
        d1 = angles_mod._project_gradient(q, rng.standard_normal(w0.shape))
        d2 = angles_mod._project_gradient(q, rng.standard_normal(w0.shape))
        p1, p2 = w0 + 0.05 * d1, w0 + 0.05 * d2
        if not (tetgeom.angles_strictly_feasible(p1).all()
                and tetgeom.angles_strictly_feasible(p2).all()):
            continue
        used += 1
        v1 = angles_mod.total_volume(angles_mod.AngleAssignment(tri=census, angles=p1))
        v2 = angles_mod.total_volume(angles_mod.AngleAssignment(tri=census, angles=p2))
        vm = angles_mod.total_volume(
            angles_mod.AngleAssignment(tri=census, angles=0.5 * (p1 + p2)))
        gap = 0.5 * (v1 + v2) - vm  # <= 0 under concavity, strictly if p1 != p2
        worst = max(worst, gap)
        ok &= gap < 1e-8
    ok &= used >= 3
    record("angles.concavity", ok,
           f"{used} segments, worst midpoint defect {worst:.3e}")

    checks_t = tuple(checks)
    violations = sum(1 for c in checks_t if not c.ok)
    return PropsuiteReport(seed=seed, checks=checks_t, violations=violations,
                           probe=probe)
