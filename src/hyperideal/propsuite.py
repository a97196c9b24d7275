"""Cross-module invariant battery.

Each structural identity the modules promise (quotient-map accounting,
Jacobian definiteness both ways, exactness of the volume differential,
oracle agreement, Lyapunov monotonicity, the heat equation, local
attraction, LP witness substitution, concavity, KKT spreads, determinism)
is one check function, which takes what it samples and returns a named
`Check`.  `run` calls them all on seeded samples plus the census; the CLI
exposes it as `propsuite`, where a violation is an error exit, and the
acceptance criteria call the same functions at their own seeds and sample
sizes.  The Minkowski-model oracle and the length-space convexity probe,
which the checks and the criteria share, live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import angles as angles_mod
from . import dynamics, metric as metric_mod, tetgeom
from . import triangulation as tri_mod

ORACLE_TOL = 1e-9                  # cofactor map vs Minkowski oracle
ORACLE_SAMPLES = 250               # shapes sampled, and oracle draws, per run
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


def _check(name: str, ok, detail: str = "") -> Check:
    return Check(name=name, ok=bool(ok), detail=detail)


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
    out = np.empty((0, 6))
    while len(out) < count:
        draws = np.exp(rng.uniform(math.log(low), math.log(high),
                                   size=(4 * count, 6)))
        out = np.concatenate([out, draws[np.atleast_1d(tetgeom.is_admissible(draws))]])
    return out[:count]


def _fd_jacobian(func, x):
    h = 1e-6
    return np.column_stack([(func(x + e) - func(x - e)) / (2 * h)
                            for e in h * np.eye(x.size)])


def schlafli_leg(p, q) -> float:
    """The integral of -(1/2) x . da along the angle segment p -> q.

    24-point Gauss-Legendre quadrature over the closed-form lengths x(a), so
    it shares no code with the closed-form volume it is compared against.
    """
    z, w = np.polynomial.legendre.leggauss(24)
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


def rebuild_idempotent(tri) -> Check:
    rebuilt = tri_mod.build(tri.spec)
    return _check("triangulation.rebuild_idempotent",
                  rebuilt.edge_classes == tri.edge_classes
                  and rebuilt.vertex_classes == tri.vertex_classes
                  and rebuilt.boundary_links == tri.boundary_links)


def census_accounting(tris, census_count: int) -> Check:
    ok = True
    for tri in tris:
        ok &= sum(ec.valence for ec in tri.edge_classes) == 6 * tri.tet_count
        ok &= all(l.sides * 2 == 3 * l.triangles for l in tri.boundary_links)
        ok &= (sum(l.chi for l in tri.boundary_links)
               == sum(l.corners for l in tri.boundary_links) - 2 * tri.tet_count)
    return _check("triangulation.census_accounting", ok,
                  f"census search matches: {census_count}")


def pairing_involution(tris) -> Check:
    ok = True
    for spec in (tri.spec for tri in tris):
        for t in range(spec.tet_count):
            for f in range(4):
                t2, f2, s = spec.pairing(t, f)
                bt, bf, bs = spec.pairing(t2, f2)
                ok &= (bt, bf) == (t, f) and all(bs[s[v]] == v for v in range(4))
    return _check("triangulation.pairing_involution", ok)


def census_classes(tri) -> Check:
    return _check("triangulation.census_classes",
                  len(tri.edge_classes) == 1 and tri.edge_classes[0].valence == 12
                  and len(tri.boundary_links) == 1 and tri.boundary_links[0].chi < 0,
                  f"chi = {tri.boundary_links[0].chi}")


def sine_cosine_identity(shapes) -> Check:
    pl = tetgeom._pipeline(shapes)
    gap = np.abs(pl.sines ** 2 + pl.cosines ** 2 - 1.0).max()
    return _check("tetgeom.sine_cosine_identity", gap <= 1e-12,
                  f"max |sin^2 + cos^2 - 1| {gap:.3e}")


def jacobian_spd(shapes) -> Check:
    """da/dx matches central differences; it and its inverse are SPD."""
    fd = sym = inv_sym = 0.0
    eig = inv_eig = np.inf
    for x in shapes:
        J = tetgeom.jacobian_angles_lengths(x)
        Jinv = np.linalg.inv(J)
        fd = max(fd, float(np.abs(J - _fd_jacobian(tetgeom.angles_from_lengths, x)).max()))
        sym = max(sym, float(np.abs(J - J.T).max()))
        inv_sym = max(inv_sym, float(np.abs(Jinv - Jinv.T).max()))
        eig = min(eig, float(np.linalg.eigvalsh(0.5 * (J + J.T)).min()))
        inv_eig = min(inv_eig, float(np.linalg.eigvalsh(0.5 * (Jinv + Jinv.T)).min()))
    return _check("tetgeom.jacobian_spd",
                  fd < 1e-6 and sym < 1e-8 and eig > 0 and inv_sym < 1e-8 and inv_eig > 0,
                  f"{len(shapes)} shapes: fd {fd:.3e} sym {sym:.3e} eig {eig:.3e}; "
                  f"inverse sym {inv_sym:.3e} eig {inv_eig:.3e}")


def inversion_roundtrip(shapes) -> Check:
    back = tetgeom.lengths_from_angles(tetgeom.angles_from_lengths(shapes))
    worst = float(np.abs(back - shapes).max())
    return _check("tetgeom.inversion_roundtrip", worst < 1e-9, f"max {worst:.3e}")


def schlafli_exact(shapes, paths) -> Check:
    """The volume's angle gradient is -x/2 at each shape, and on each angle
    path (p, m, q) the quadrature p -> m -> q is volume(q) - volume(p)."""
    grad = path = 0.0
    for x in shapes:
        g = _fd_jacobian(
            lambda a: np.array([float(tetgeom.volume(tetgeom.validate_angles(a))
                                      - tetgeom.V_REF)]),
            tetgeom.angles_from_lengths(x))[0]
        grad = max(grad, float(np.abs(g + 0.5 * x).max()))
    for p, m, q in paths:
        two_leg = schlafli_leg(p, m) + schlafli_leg(m, q)
        path = max(path, abs(two_leg - float(tetgeom.volume(q) - tetgeom.volume(p))))
    return _check("tetgeom.schlafli_exact", grad < 1e-6 and path < 2e-9,
                  f"{len(shapes)} shapes, grad {grad:.3e}; {len(paths)} path(s), "
                  f"path {path:.3e}")


def oracle_agreement(rng, count: int) -> Check:
    """Pipeline and Minkowski oracle agree on `count` log-uniform draws."""
    draws = np.exp(rng.uniform(math.log(0.02), math.log(8.0), size=(count, 6)))
    mism = admissible = 0
    worst = 0.0
    for x in draws:
        trig_ok = bool(tetgeom.is_admissible(x))
        oracle = minkowski_oracle(x)
        if trig_ok != (oracle is not None):
            mism += 1
        elif trig_ok:
            admissible += 1
            worst = max(worst, float(np.abs(tetgeom.angles_from_lengths(x)
                                            - oracle).max()))
    return _check("tetgeom.oracle_agreement", mism == 0 and worst < ORACLE_TOL,
                  f"{count} tuples, {admissible} admissible, mismatches {mism}, "
                  f"max angle gap {worst:.3e}")


def regular_family_monotone() -> Check:
    # Regular tetrahedra: cos a = cosh x / (2 cosh x - 1) rises from 0 toward
    # pi/3.  Past x = 8 the quotient cancels; the pipeline refuses the shape.
    grid = np.linspace(0.05, 8.0, 40)
    common = np.array([tetgeom.angles_from_lengths(np.full(6, g))[0] for g in grid])
    formula = np.arccos(np.cosh(grid) / (2 * np.cosh(grid) - 1))
    return _check("tetgeom.regular_family_monotone",
                  np.abs(common - formula).max() < 1e-9
                  and np.all(np.diff(common) > 0)
                  and tetgeom.angles_from_lengths(np.full(6, 1e-3))[0] < 0.05
                  and math.pi / 3 - common[-1] < 1e-3
                  and common[-1] < math.pi / 3)


def convexity_probe(probe: ConvexityProbe, stored: dict) -> Check:
    """The probe reruns identically and found witnesses; each witness of
    `stored`, its JSON object as written or read back, is re-verified."""
    count = stored["witness_count"]
    verified = 0
    for pair in stored["witnesses"]:
        x0, x1 = (np.array(w, dtype=float) for w in pair)
        verified += bool(tetgeom.is_admissible(x0) and tetgeom.is_admissible(x1)
                         and not tetgeom.is_admissible(0.5 * (x0 + x1)))
    return _check("tetgeom.convexity_probe",
                  1 <= count == verified == len(stored["witnesses"])
                  and probe == probe_length_space_convexity(probe.trials, probe.seed),
                  f"{count} witnesses from {probe.pairs_admissible} pairs, "
                  f"{verified} re-verified")


def gradient_and_jacobian(metrics) -> Check:
    """dK/dx and the gradient -K of H match central differences at each
    metric; dK/dx is symmetric and negative definite."""
    gap_j = gap_g = sym = 0.0
    max_eig = -np.inf
    for m in metrics:
        ev = _state(m.tri, m.x)
        J = ev.jacobian()
        fd_k = _fd_jacobian(lambda xv: _state(m.tri, xv).K, m.x)
        fd_g = _fd_jacobian(lambda xv: np.array([_state(m.tri, xv).H]), m.x)[0]
        gap_j = max(gap_j, float(np.abs(fd_k - J).max()))
        gap_g = max(gap_g, float(np.abs(fd_g + ev.K).max()))
        sym = max(sym, float(np.abs(J - J.T).max()))
        max_eig = max(max_eig, float(np.linalg.eigvalsh(0.5 * (J + J.T)).max()))
    return _check("metric.gradient_and_jacobian",
                  gap_j < 1e-5 and gap_g < 1e-6 and sym < 1e-12 and max_eig < 0,
                  f"{len(metrics)} metric(s): fdJ {gap_j:.2e} fdG {gap_g:.2e} "
                  f"sym {sym:.2e} max eig {max_eig:.2e}")


def scale_dependence(tri) -> Check:
    gap = float(np.abs(_state(tri, np.ones(tri.n_edges)).K
                       - _state(tri, np.full(tri.n_edges, 1.37)).K).max())
    return _check("metric.scale_dependence", gap > 1e-3, f"|K(x) - K(cx)| = {gap:.3e}")


def assembly_ordering(census, multi) -> Check:
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
    return _check("metric.assembly_ordering", ok)


# the largest rise per accepted step allowed in sum K^2 and in H; fixed, not
# read from FlowConfig: a looser rtol must not loosen the check
LYAPUNOV_RISE = 10.0 * (1e-12 + 1e-14)
RECOVERY_TOL = 1e-6  # distance to the equilibrium that counts as recovered


def lyapunov(traces) -> Check:
    curv = energy = -np.inf
    for trace in traces:
        curv = max(curv, float(np.diff(trace.total_curv).max(initial=-np.inf)))
        energy = max(energy, float(np.diff(trace.H).max(initial=-np.inf)))
    statuses = sorted({trace.status for trace in traces})
    return _check("dynamics.lyapunov",
                  statuses == ["converged"] and max(curv, energy) < LYAPUNOV_RISE,
                  f"{len(traces)} trajectory(ies), "
                  f"{sum(trace.steps_accepted for trace in traces)} steps, status "
                  f"{'/'.join(statuses)}; worst rises sum K^2 {curv:.1e}, H {energy:.1e}")


def heat_equation(tri, traces) -> Check:
    """dK/dt = J K by central differences along K, at six evenly spaced
    states, the second and the middle one of each trajectory."""
    rel = scaled = 0.0
    for trace in traces:
        n = trace.t.size
        idx = np.unique(np.minimum(
            np.r_[np.linspace(0, n - 1, 6).astype(int), 1, n // 2], n - 1))
        for x, K in zip(trace.x[idx], trace.K[idx]):
            JK = _state(tri, x).jacobian() @ K
            fd = (_state(tri, x + 1e-5 * K).K - _state(tri, x - 1e-5 * K).K) / 2e-5
            gap = float(np.abs(fd - JK).max())
            k_max = float(np.abs(K).max())
            scaled = max(scaled, gap / max(1.0, k_max))
            if k_max >= 1e-9:
                rel = max(rel, gap / (float(np.abs(JK).max()) + 1e-8))
    return _check("dynamics.heat_equation", rel < 1e-5 and scaled < 1e-6,
                  f"worst relative gap {rel:.3e}, gap over max(1, |K|) {scaled:.1e}")


def solver_agreement(trace, m_min, rep) -> Check:
    """The converged flow and Newton's minimum m_min (report rep) agree."""
    k_end = float(np.abs(trace.K[-1]).max())
    gap = float(np.abs(trace.x[-1] - m_min.x).max())
    return _check("dynamics.solver_agreement",
                  trace.status == "converged" and k_end < 1e-12
                  and rep.iterations <= 20 and gap < 1e-7,
                  f"flow |K| {k_end:.1e}, flow vs Newton gap {gap:.3e} "
                  f"({rep.iterations} Newton steps)")


def determinism(m0) -> Check:
    t1, t2 = dynamics.flow(m0), dynamics.flow(m0)
    return _check("dynamics.determinism",
                  np.array_equal(t1.t, t2.t) and np.array_equal(t1.x, t2.x)
                  and np.array_equal(t1.H, t2.H) and t1.status == t2.status)


def rigidity(metrics) -> Check:
    """dK/dx is nonsingular (the metric is locally rigid), with its absolute
    eigenvalues as singular values, since it is symmetric."""
    ok, smin_all, ratio, sv_gap = True, np.inf, np.inf, 0.0
    for m in metrics:
        J = _state(m.tri, m.x).jacobian()
        sv = np.linalg.svd(J, compute_uv=False)
        ok &= sv[-1] > 1e-12 * max(1.0, sv[0])
        smin_all, ratio = min(smin_all, sv[-1]), min(ratio, sv[-1] / sv[0])
        sv_gap = max(sv_gap, float(np.abs(
            np.sort(sv) - np.sort(np.abs(np.linalg.eigvalsh(J)))).max()))
    return _check("dynamics.rigidity", ok and sv_gap < 1e-10,
                  f"{len(metrics)} metric(s), sigma_min {smin_all:.3e}, worst "
                  f"sigma_min/sigma_max {ratio:.2e}, |sigma - |eig|| {sv_gap:.1e}")


def attractor(m_eq, rng, trials: int, radius: float = 0.01) -> Check:
    """The flow returns to the equilibrium m_eq (|K| < 1e-10, else
    ValueError) from `trials` perturbations uniform in the radius ball."""
    if float(np.abs(_state(m_eq.tri, m_eq.x).K).max()) >= 1e-10:
        raise ValueError("the attractor check needs an equilibrium metric")
    recovered, worst = 0, 0.0
    for delta in rng.uniform(-radius, radius, size=(trials, m_eq.x.size)):
        trace = dynamics.flow(m_eq.with_lengths(m_eq.x + delta))
        dist = float(np.abs(trace.x[-1] - m_eq.x).max())
        worst = max(worst, dist)
        recovered += trace.status == "converged" and dist <= RECOVERY_TOL
    return _check("dynamics.attractor", recovered == trials,
                  f"{recovered}/{trials} recovered from radius {radius:g}, "
                  f"max distance {worst:.3e}")


def lp_witness(tri, lp) -> Check:
    """lp = lp_feasibility(tri) is feasible and reruns bit for bit; its
    witness sums to 2*pi per edge class and has margin epsilon."""
    lp2 = angles_mod.lp_feasibility(tri)
    ok = lp.feasible and lp.epsilon is not None and lp.epsilon > 0 and lp2.feasible
    detail = f"epsilon {lp.epsilon!r}"
    if ok:
        angles_mod.validate_assignment(lp.witness)
        w = lp.witness.angles
        defect = float(np.abs(angles_mod.edge_sums(lp.witness) - 2 * math.pi).max())
        margin = min(float(w.min()), float((math.pi - tetgeom.vertex_angle_sums(w)).min()))
        ok &= defect < 1e-9 and margin >= lp.epsilon - 1e-12
        ok &= lp2.epsilon == lp.epsilon and np.array_equal(lp2.witness.angles, w)
        detail += f", edge-sum defect {defect:.1e}, witness margin {margin!r}"
    return _check("angles.lp_witness", ok, detail)


def volmax_kkt(tri, start, x_ref) -> Check:
    """Volume ascent from start reaches the metric x_ref at every corner."""
    _, rep = angles_mod.maximize_volume(tri, start, tol=1e-8)
    gap = float(np.abs(rep.lengths - tri.quotient.gather(x_ref)).max())
    return _check("angles.volmax_kkt", rep.max_spread < 1e-6 and gap < 1e-6,
                  f"spread {rep.max_spread:.3e}, length gap {gap:.3e}")


def concavity(tri, center, rng, count: int) -> Check:
    """Second differences v1 + v2 - 2 v_mid of the volume at most 1e-8 on
    `count` chords between random tangent steps from center, at least half
    of them strictly feasible."""
    worst, used, q = -np.inf, 0, tri.quotient
    for _ in range(count):
        d1 = angles_mod._project_gradient(q, rng.standard_normal(center.shape))
        d2 = angles_mod._project_gradient(q, rng.standard_normal(center.shape))
        p1, p2 = center + 0.05 * d1, center + 0.05 * d2
        if not (tetgeom.angles_strictly_feasible(p1).all()
                and tetgeom.angles_strictly_feasible(p2).all()):
            continue
        used += 1
        v1, v2, vm = (angles_mod.total_volume(angles_mod.AngleAssignment(tri=tri, angles=p))
                      for p in (p1, p2, 0.5 * (p1 + p2)))
        worst = max(worst, 0.5 * (v1 + v2) - vm)  # <= 0 under concavity
    return _check("angles.concavity", 2.0 * worst <= 1e-8 and 2 * used >= count,
                  f"{used} segments, worst midpoint defect {worst:.3e}")


def run(seed: int = 0, probe_trials: int = 2000) -> PropsuiteReport:
    """Every check, in a fixed order, on the census and the multi-class
    instance of `_search_instances` and on samples drawn in that order from
    one generator seeded by seed."""
    rng = np.random.default_rng(seed)
    census, census_count, multi = _search_instances()
    checks = [rebuild_idempotent(census),
              census_accounting((census, multi), census_count),
              pairing_involution((census, multi)),
              census_classes(census)]

    X = sample_admissible(rng, ORACLE_SAMPLES, low=0.1, high=4.0)
    a1, a2 = tetgeom.angles_from_lengths(X[:2])
    probe = probe_length_space_convexity(probe_trials, seed)
    checks += [sine_cosine_identity(X), jacobian_spd(X[:20]),
               inversion_roundtrip(X[:40]),
               schlafli_exact(X[:6], [(a1, 0.5 * (a1 + a2), a2)]),
               oracle_agreement(rng, ORACLE_SAMPLES), regular_family_monotone(),
               convexity_probe(probe, probe.to_json_obj())]

    perturbed = [metric_mod.ConeMetric(tri=tri, x=1.0 + 0.05 * rng.standard_normal(tri.n_edges))
                 for tri in (census, multi)]
    checks += [gradient_and_jacobian(perturbed), scale_dependence(census),
               assembly_ordering(census, multi)]

    m1 = metric_mod.ConeMetric(tri=census, x=np.ones(1))
    trace = dynamics.flow(m1.with_lengths(np.full(1, 2.0)))
    m_min, rep = dynamics.minimize_energy(m1, tol=1e-12)
    checks += [lyapunov([trace]), heat_equation(census, [trace]),
               solver_agreement(trace, m_min, rep),
               determinism(m1.with_lengths(np.full(1, 1.3))), rigidity([m_min])]

    lp = angles_mod.lp_feasibility(census)
    checks += [lp_witness(census, lp), volmax_kkt(census, lp.witness, m_min.x),
               concavity(census, lp.witness.angles, rng, 12), attractor(m_min, rng, 4)]
    return PropsuiteReport(seed=seed, checks=tuple(checks),
                           violations=sum(not c.ok for c in checks), probe=probe)
