"""The per-step kernels against their plain formulations, bit for bit.

`dynamics._phi`, `tetgeom._jacobian` and `tetgeom._pipeline` are written
for few NumPy calls: skipped branches, preallocated rows, direct ufunc
reductions, an edge-major gather.  None of that may change a bit, so the
plain formulations they replaced are kept below, and every comparison is
of `.tobytes()`, run on this machine.  No float checksum is pinned: the
NumPy build decides the bits, and both sides use the same one.
"""

import math
import random

import numpy as np
import pytest

from conftest import census_metric
from hyperideal import angles as A
from hyperideal import dynamics as D
from hyperideal import metric as M
from hyperideal import tetgeom as T
from hyperideal.errors import ConvergenceError


def ref_phi(z):
    small = np.abs(z) < 0.5
    zs = np.where(small, z, 0.0)
    p4 = np.zeros_like(zs)
    for j in range(D._PHI_SERIES - 1, -1, -1):
        p4 = p4 * zs + 1.0 / math.factorial(j + 4)
    p3 = 1.0 / 6.0 + zs * p4
    p2 = 0.5 + zs * p3
    series = (1.0 + zs * p2, p2, p3, p4)
    zl = np.where(small, 1.0, z)
    with np.errstate(over="ignore", invalid="ignore"):
        r1 = np.expm1(zl) / zl
        r2 = (r1 - 1.0) / zl
        r3 = (r2 - 0.5) / zl
        r4 = (r3 - 1.0 / 6.0) / zl
    return np.where(small, series, (r1, r2, r3, r4))


def ref_pipeline(x):
    shape_major = (*range(1, x.ndim), 0)
    opp_i, opp_j = T._EDGE_VW[::-1].T
    with np.errstate(all="ignore"):
        xe = x.transpose((x.ndim - 1, *range(x.ndim - 1))).copy()
        ch, sh = np.cosh(xe), np.sinh(xe)
        s2 = sh * sh
        cf, ce, ca, cb, cc, cd = ch[T._COF_E]
        cof = ca * cb + cc * cd + ce * (ca * cd + cc * cb) - cf * s2[::-1]
        face = 2.0 + 2.0 * ch[T._FACE_E].prod(axis=0) + s2[T._FACE_E].sum(axis=0)
        root = np.sqrt(np.maximum(face[0] + (ch[:3] * cof[:3]).sum(axis=0), 0.0))
        r = np.sqrt(face[opp_i] * face[opp_j])
        cosines = np.where(np.isfinite(r + root), cof[::-1] / r, np.nan)
        sines = root * sh / r
        angles = np.arctan2(sines, cosines)
        vsums = angles[T._VERT_E.T].sum(axis=0)
        in_range = (xe > 0.0) & (xe <= T.MAX_LENGTH)
        slack = np.concatenate([1.0 - np.abs(cosines), math.pi - vsums])
        slack = np.where(in_range.all(axis=0), np.fmax(slack, -np.inf), -np.inf)
    slack = slack.transpose(shape_major)
    return T._Pipeline(ch, sh, cof, r, root, cosines.transpose(shape_major),
                       sines.transpose(shape_major), angles.transpose(shape_major),
                       vsums.transpose(shape_major), in_range.transpose(shape_major),
                       slack, (slack > T._SLACK_FLOOR).all(axis=-1),
                       slack.min(axis=-1))


def ref_jacobian(pl):
    cf, ce, ca, cb, cc, cd = pl.ch[T._COF_E]
    sg = pl.sh[T._COF_E]
    dcof = sg * np.stack([-sg[1] * sg[1], ca * cd + cc * cb - 2.0 * cf * ce,
                          cb + ce * cd, ca + ce * cc, cd + ce * cb, cc + ce * ca])
    sh, root = pl.sh, pl.root
    dsigma = sh[:, None] * (pl.cof * sh / root)
    dsigma[T._DIAG, T._DIAG] += root * pl.ch
    J = pl.cof[::-1, None] * dsigma - (root * sh)[:, None] * dcof[T._JAC_ROW, T._JAC_COL]
    return np.moveaxis(J / (pl.r * pl.r)[:, None], (0, 1), (-2, -1))


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


EDGES = [0.0, -0.0, 0.5, -0.5, 0.49999999, -0.49999999, np.nan, np.inf,
         -np.inf, 800.0]


@pytest.mark.parametrize("z", [
    np.array([0.0, -0.0, 0.49999999, -0.49999999, 1e-300, -0.3, 0.25]),
    np.array([0.5, -0.5, 2.0, -7.5, 800.0, -800.0, np.nan, np.inf, -np.inf]),
    np.array(EDGES + [0.1, -3.0, 1e-8]),
    np.array([-0.2]), np.array([-2.0]),
    np.array(EDGES).reshape(2, 5),
], ids=["small", "large", "mixed", "one-small", "one-large", "2d"])
def test_phi_matches_plain_formulation(z):
    assert same(D._phi(z), ref_phi(z))


def test_phi_matches_on_random_flow_arguments(rng):
    # h * lam / 2, 0.9 * h * lam and h * lam as the flow builds them,
    # straddling |z| = 0.5
    for _ in range(200):
        z = -np.exp(rng.uniform(-8.0, 4.0, size=rng.integers(1, 9)))
        z = np.concatenate((0.5 * z, 0.9 * z, z))
        assert same(D._phi(z), ref_phi(z))


def _length_batches(rng):
    def draw(*shape):
        return np.exp(rng.uniform(math.log(0.02), math.log(8.0), size=(*shape, 6)))

    odd = draw(5)
    odd[1, 2], odd[2, 0], odd[3, 4] = -0.5, 150.0, 400.0
    return [draw(), draw(5, 6)[0], draw(5), draw(3, 4), odd,
            np.array([1.0, 1.0, 1.0, 1.0, 1.0, 150.0])]


def test_pipeline_and_jacobian_match_plain_formulation(rng):
    for x in _length_batches(rng):
        for view in (x, np.ascontiguousarray(np.moveaxis(x, -1, 0)).transpose(
                (*range(1, x.ndim), 0))):
            got, ref = T._pipeline(view), ref_pipeline(x)
            for field in T._Pipeline._fields:
                assert same(getattr(got, field), getattr(ref, field)), field
            with np.errstate(all="ignore"):
                assert same(T._jacobian(got), ref_jacobian(ref))


def test_evaluation_matches_plain_formulation(sampler, monkeypatch):
    rng = random.Random(5)
    draws = []
    for n in (3, 4, 6, 8, 12, 16, 24, 32, 48, 64):
        tri = sampler.sample(n, rng)[0]
        x = np.exp(np.random.default_rng(n).uniform(-1.0, 1.0, tri.n_edges))
        draws.append((tri, x))

    def fields(ev):
        out = [ev.x, ev.X, ev.ok, ev.angles, ev.S, ev.K, ev.admissible,
               *ev.pipeline]
        if ev.admissible:
            out += [ev.jacobian(), ev.H]
        margin, witness = ev.margin()
        return out + [margin, repr(witness)]

    got = [fields(M.evaluate(tri, x)) for tri, x in draws]
    monkeypatch.setattr(T, "_pipeline", ref_pipeline)
    monkeypatch.setattr(T, "_jacobian", ref_jacobian)
    for (tri, x), g in zip(draws, got):
        ref = fields(M.evaluate(tri, x))
        assert len(g) == len(ref)
        for a, b in zip(g, ref):
            assert same(a, b) if not isinstance(a, str) else a == b


def _use_plain_kernels(monkeypatch):
    monkeypatch.setattr(D, "_phi", ref_phi)
    monkeypatch.setattr(T, "_pipeline", ref_pipeline)
    monkeypatch.setattr(T, "_jacobian", ref_jacobian)


def _trace_bytes(trace):
    return (trace.t.tobytes(), trace.x.tobytes(), trace.K.tobytes(),
            trace.total_curv.tobytes(), trace.H.tobytes(), trace.status,
            repr(trace.witness), trace.steps_accepted, trace.steps_rejected,
            tuple(trace.rejections.items()))


@pytest.mark.parametrize("tri_fixture, x0, t_max, status, rejections", [
    ("census_tri", 0.3, 50.0, "converged", None),
    ("census_tri", 2.0, 50.0, "converged", (0, 0, 0)),
    ("census_tri", 2.0, 0.5, "t_max_reached", None),
    ("torus_tri", 1.0, 100.0, "degenerated", (20, 7, 0)),
    ("multi_tri", 1.0, 50.0, "degenerated", (14, 15, 0)),
], ids=["census-0.3", "census-2.0", "census-t_max", "torus", "multi"])
def test_flow_end_states_match_plain_kernels(tri_fixture, x0, t_max, status,
                                             rejections, request, monkeypatch):
    m = census_metric(request.getfixturevalue(tri_fixture), x0)
    cfg = D.FlowConfig(t_max=t_max)
    got = D.flow(m, cfg)
    assert got.status == status
    if rejections is not None:
        assert tuple(got.rejections.values()) == rejections
    # the run stops at the first recorded state whose Evaluation.margin()
    # falls below the floor, and names that state's witness
    margins = [M.evaluate(m.tri, x).margin() for x in got.x]
    assert all(mg >= cfg.degeneration_margin for mg, _ in margins[:-1])
    assert (margins[-1][0] < cfg.degeneration_margin) == (status == "degenerated")
    assert got.witness == (margins[-1][1] if status == "degenerated" else None)
    _use_plain_kernels(monkeypatch)
    assert _trace_bytes(got) == _trace_bytes(D.flow(m, cfg))


@pytest.fixture(scope="module")
def sampled12_tri(sampler):
    return sampler.sample(12, random.Random(3))[0]


def _minimize_bytes(m):
    try:
        out, rep = D.minimize_energy(m)
    except ConvergenceError as exc:
        return str(exc), exc.last.tobytes()
    return out.x.tobytes(), rep.iterations, rep.K_norm, rep.H_val, rep.step_sizes


def _volmax_bytes(tri):
    assign, rep = A.maximize_volume(tri, A.lp_feasibility(tri).witness)
    return (assign.angles.tobytes(), rep.iterations, rep.objective,
            rep.grad_norm, rep.spreads.tobytes(), rep.lengths.tobytes())


@pytest.mark.parametrize("tri_fixture", ["census_tri", "multi_tri",
                                         "sampled12_tri"])
def test_newton_solvers_match_plain_kernels(tri_fixture, request, monkeypatch):
    tri = request.getfixturevalue(tri_fixture)
    starts = [census_metric(tri, v) for v in (0.3, 1.0, 2.0)]
    got = [_minimize_bytes(m) for m in starts]
    # the multi-class gluing has no angle structure (its LP is infeasible);
    # its descents stop at the degeneration floor and name the witness
    feasible = tri_fixture != "multi_tri"
    if not feasible:
        assert all("degenerated" in g[0] for g in got)
    vol = _volmax_bytes(tri) if feasible else None
    _use_plain_kernels(monkeypatch)
    assert got == [_minimize_bytes(m) for m in starts]
    assert vol == (_volmax_bytes(tri) if feasible else None)
