"""Geometry of a single hyperideal tetrahedron from its six edge lengths.

A hyperideal tetrahedron is the compact convex body obtained from a
combinatorial tetrahedron whose four vertices sit beyond the ideal boundary
of hyperbolic 3-space by truncating along the four polar planes.  It is
determined up to isometry by the lengths x_0..x_5 of its six core edges,
indexed by vertex pairs in lexicographic order 01, 02, 03, 12, 13, 23 (so
opposite edge pairs are (0,5), (1,4), (2,3)).  Each face is then a
right-angled hexagon and each truncation cross-section a hyperbolic
triangle whose angles are the dihedral angles at its vertex.

The dihedral angles come from the vertex Gram matrix H: unit diagonal and
H_vw = -cosh x_vw, of signature (3, 1) on admissible shapes (Ushijima; the
vertex/face Gram duality of Bao-Bonahon).  With c its cofactors, written
out as polynomials in the entries (h^2 - 1 taken as sinh^2), and i, j the
two vertices off the edge e = {v, w}:

    cos a_e = c_ij / sqrt(c_ii c_jj),
    sin a_e = sqrt(-det H) sinh x_e / sqrt(c_ii c_jj),

the second by Jacobi's identity c_ii c_jj - c_ij^2 = -det H sinh^2 x_e, and
a_e = atan2(sin, cos) keeps the digits of angles near 0 and pi.  det H is
expanded along one row of the same cofactors, and the angle Jacobian is
their polynomial gradient.  The truncation-triangle sides (`arcs`), which
the faces' right-angled hexagons give, are a separate report.

Both input domains are decided here, once: `validate_lengths` and
`validate_angles` are the package's only length and angle rules, and every
entry point applies them.

Not every positive length vector is admissible.  Admissibility is decided
operationally, by ten slacks per shape: 1 - |cos| at each edge must exceed
a small guard (so det H < 0), and pi minus the angle sum at each vertex
must be positive.  A NaN slack counts as -inf, and so does every slack of
a shape with a length outside the length rule.  Lengths long enough to
overflow the cofactor products (from about 120 on the regular shape) leave
NaN cosines and so are never admissible.  The verdict, the margin (the
smallest slack), the refusal and the witness all read these slacks.  The
Minkowski-model oracle in `propsuite` cross-checks this classification.

The volume is a function of the dihedral angles alone, in closed form: the
Murakami-Yano formula, extended by Ushijima to truncated tetrahedra, puts
every dilogarithm argument on the unit circle, so `volume` is a signed sum
of 16 Clausen values.  By the Schlafli formula its gradient in the angles
is -x/2, x the lengths realizing them.  Those lengths are closed-form as
well: `lengths_from_angles` reads each one off the cofactors of the same
face Gram matrix, so no routine here iterates.

All core routines are vectorized over arbitrary leading batch dimensions;
a length vector is any float array of shape (..., 6).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import InadmissibleShapeError
from .triangulation import EDGE_VERTEX_PAIRS, VERTEX_EDGES, edge_index

COSINE_GUARD = 1e-9     # corner cosines must stay this far inside (-1, 1)
MAX_LENGTH = 350.0      # cosh and sinh stay finite in float64

# What each slot of _Pipeline.slack must exceed: the guard at a corner, 0
# at a vertex.
_SLACK_FLOOR = np.array([COSINE_GUARD] * 6 + [0.0] * 4)

ARC_VERTEX_FACE = tuple((v, f) for v in range(4) for f in range(4) if f != v)


def _cofactor_edges():
    # Column f = {i, j} with opposite edge {k, l}: f, kl, ik, jk, il, jl.
    cols = []
    for f, (i, j) in enumerate(EDGE_VERTEX_PAIRS):
        k, l = EDGE_VERTEX_PAIRS[5 - f]
        cols.append([f, 5 - f, edge_index(i, k), edge_index(j, k),
                     edge_index(i, l), edge_index(j, l)])
    return np.array(cols).T


_COF_E = _cofactor_edges()
# Entry (e, g) of the angle Jacobian takes the gradient of the cofactor of
# the pair 5 - e opposite e, at the row where g sits in column 5 - e.
_DIAG = np.arange(6)
_JAC_COL = 5 - _DIAG[:, None]
_JAC_ROW = np.argsort(_COF_E[:, ::-1], axis=0).T
# The edges of the face opposite each vertex, one vertex per column.
_FACE_E = np.array([[e for e, vw in enumerate(EDGE_VERTEX_PAIRS) if v not in vw]
                    for v in range(4)]).T
_VERT_E = np.array(VERTEX_EDGES)
_EDGE_VW = np.array(EDGE_VERTEX_PAIRS)
# The two vertices off each edge, as two rows.
_OPP = _EDGE_VW[::-1].T


def _refuse(bad, values, message: str, reason=None, at: str = "edge") -> None:
    """Raise for the first entry of values (..., k) that bad marks, if any.

    message is formatted with its index, named `at` (a corner cosine also
    gets its edge's first vertex), and its value as a plain float.  Inside
    a batch the shape is named too: 'tetrahedron t: ' and tet=t, t its flat
    index.  Without a reason the error is a plain ValueError.
    """
    if not bad.any():
        return
    flat = np.reshape(bad, (-1, np.shape(bad)[-1]))
    t = int(np.argmax(flat.any(axis=1)))
    k = int(np.argmax(flat[t]))
    value = float(np.reshape(values, flat.shape)[t, k])
    where = {at: k}
    if reason == "corner_cosine":
        where["vertex"] = EDGE_VERTEX_PAIRS[k][0]
    message = message.format(value=value, **where)
    if np.ndim(bad) > 1:
        message = f"tetrahedron {t}: {message}"
    else:
        t = None
    if reason is None:
        raise ValueError(message)
    raise InadmissibleShapeError(message, reason=reason, tet=t, value=value, **where)


def validate_lengths(x) -> np.ndarray:
    """The length rule, for lengths of any shape (..., k), as a float array:
    finite and at most MAX_LENGTH, else ValueError; positive, else
    InadmissibleShapeError."""
    x = np.asarray(x, dtype=float)
    _refuse(~np.isfinite(x), x, "edge {edge} has non-finite length {value}")
    _refuse(x > MAX_LENGTH, x,
            f"edge {{edge}} has length {{value}}, above the supported {MAX_LENGTH}")
    _refuse(x <= 0.0, x, "edge {edge} has non-positive length {value}",
            "nonpositive_length")
    return x


def _as_lengths(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (6,):
        raise ValueError(f"length vector must have trailing dimension 6, got shape {x.shape}")
    return validate_lengths(x)


class _Pipeline(NamedTuple):
    # Edge-major, (6, ...) with row e for edge e, as the Jacobian reads them.
    ch: np.ndarray      # cosh of lengths
    sh: np.ndarray      # sinh of lengths
    cof: np.ndarray     # off-diagonal cofactors c_ij, by vertex pair
    r: np.ndarray       # sqrt(c_ii c_jj) over the pair opposite each edge
    root: np.ndarray    # (...) sqrt(-det H)
    # Shape-major, as callers index them.
    cosines: np.ndarray  # (..., 6) corner cosines, one per edge
    sines: np.ndarray   # (..., 6)
    angles: np.ndarray  # (..., 6) atan2(sines, cosines)
    vsums: np.ndarray   # (..., 4) angle sum at each vertex
    in_range: np.ndarray  # (..., 6) length in (0, MAX_LENGTH]
    # (..., 10) 1 - |cosine| for edges 0-5, then pi - angle sum for
    # vertices 0-3; NaN counts as -inf, and so does every slot of a shape
    # with a length out of range.  ok and margin are read off it.
    slack: np.ndarray
    ok: np.ndarray      # (...) every corner slack above the guard, every vertex slack > 0
    margin: np.ndarray  # (...) slack.min(-1), never NaN


def _pipeline(x: np.ndarray) -> _Pipeline:
    # Work edge-major, (6, ...), so that each edge's values are contiguous;
    # an edge-major array passed as a shape-major view is read in place.
    shape_major = (*range(1, x.ndim), 0)
    with np.errstate(all="ignore"):
        xe = np.ascontiguousarray(x.transpose((x.ndim - 1, *range(x.ndim - 1))))
        ch, sh = np.cosh(xe), np.sinh(xe)
        s2 = sh * sh
        cf, ce, ca, cb, cc, cd = ch[_COF_E]
        # h = -cosh x, and h^2 - 1 = sinh^2 x keeps the digits of short edges
        cof = ca * cb + cc * cd + ce * (ca * cd + cc * cb) - cf * s2[::-1]
        # -c_vv = 2 + 2 prod cosh + sum sinh^2 over the face opposite v
        face = (2.0 + 2.0 * np.multiply.reduce(ch[_FACE_E], axis=0)
                + np.add.reduce(s2[_FACE_E], axis=0))
        # -det H, expanded along row 0
        root = np.sqrt(np.maximum(face[0] + np.add.reduce(ch[:3] * cof[:3], axis=0),
                                  0.0))
        fi, fj = face[_OPP]
        r = np.sqrt(fi * fj)
        # An overflowed r or root would pass for a zero cosine or a right
        # angle; such corners get NaN cosines, so the shape is never ok.
        cosines = np.where(np.isfinite(r + root), cof[::-1] / r, np.nan)
        sines = root * sh / r
        angles = np.arctan2(sines, cosines)
        vsums = np.add.reduce(angles[_VERT_E.T], axis=0)
        in_range = (xe > 0.0) & (xe <= MAX_LENGTH)
        slack = np.concatenate([1.0 - np.abs(cosines), math.pi - vsums])
        slack = np.where(np.logical_and.reduce(in_range, axis=0),
                         np.fmax(slack, -np.inf), -np.inf)
    slack = slack.transpose(shape_major)
    return _Pipeline(ch, sh, cof, r, root, cosines.transpose(shape_major),
                     sines.transpose(shape_major), angles.transpose(shape_major),
                     vsums.transpose(shape_major), in_range.transpose(shape_major),
                     slack, np.logical_and.reduce(slack > _SLACK_FLOOR, axis=-1),
                     np.minimum.reduce(slack, axis=-1))


def _raise_inadmissible(pl: _Pipeline) -> None:
    """Raise for the first failing corner cosine, else vertex sum, of
    lengths that passed validate_lengths."""
    if not np.all(pl.ok):
        _refuse(pl.slack[..., :6] <= COSINE_GUARD, pl.cosines,
                "corner cosine at edge {edge}, vertex {vertex} is {value}, outside "
                f"(-1, 1) by more than the {COSINE_GUARD} guard", "corner_cosine")
        _refuse_vertex_sums(pl.vsums)


def _refuse_vertex_sums(vs: np.ndarray) -> None:
    _refuse(~(vs < math.pi), vs, "angles at vertex {vertex} sum to {value}, "
            "not strictly below pi", "vertex_sum", at="vertex")


def arcs_from_lengths(x) -> np.ndarray:
    """The 12 truncation-triangle sides, ordered by (vertex, face).

    Arc (v, f) is the side cut out of the triangle at v by face f.  With
    {j, k} the remaining vertices, the right-angled-hexagon relation gives
    cosh t = (cosh x_jk + cosh x_vj cosh x_vk) / (sinh x_vj sinh x_vk).
    """
    x = _as_lengths(x)
    vj, vk, jk = np.array([[edge_index(v, j), edge_index(v, k), edge_index(j, k)]
                           for v, f in ARC_VERTEX_FACE
                           for j, k in [sorted({0, 1, 2, 3} - {v, f})]]).T
    ch, sh = np.cosh(x), np.sinh(x)
    coth = ch / sh
    # coth*coth + cosh/(sinh*sinh) avoids overflow of cosh*cosh
    return np.arccosh(coth[..., vj] * coth[..., vk] + ch[..., jk] / (sh[..., vj] * sh[..., vk]))


def is_admissible(x) -> np.ndarray:
    """Boolean mask (scalar for a single shape): do the lengths define a tetrahedron?"""
    pl = _pipeline(_as_lengths(x))
    return pl.ok


def angles_from_lengths(x) -> np.ndarray:
    """Dihedral angles (..., 6); raises InadmissibleShapeError with the offending corner."""
    pl = _pipeline(_as_lengths(x))
    _raise_inadmissible(pl)
    return pl.angles


def vertex_angle_sums(angles) -> np.ndarray:
    """Sums of the three dihedral angles meeting at each vertex, shape (..., 4)."""
    a = np.asarray(angles, dtype=float)
    return a[..., _VERT_E].sum(axis=-1)


def angles_strictly_feasible(angles) -> np.ndarray:
    """Mask: all six angles in (0, pi) and every vertex sum strictly below pi."""
    a = np.asarray(angles, dtype=float)
    ok = np.isfinite(a).all(axis=-1) & (a > 0.0).all(axis=-1) & (a < math.pi).all(axis=-1)
    return ok & (vertex_angle_sums(a) < math.pi).all(axis=-1)


def validate_angles(a) -> np.ndarray:
    """The angle rule, for angle vectors (..., 6), as a float array: finite,
    else ValueError; each angle in (0, pi) and every vertex sum below pi,
    else InadmissibleShapeError.  angles_strictly_feasible is its mask."""
    a = np.asarray(a, dtype=float)
    if a.shape[-1:] != (6,):
        raise ValueError(f"angle vector must have trailing dimension 6, got shape {a.shape}")
    _refuse(~np.isfinite(a), a, "edge {edge} has non-finite angle {value}")
    _refuse((a <= 0.0) | (a >= math.pi), a, "angle at edge {edge} is {value}, "
            "outside the open interval (0, pi)", "angle_range")
    _refuse_vertex_sums(vertex_angle_sums(a))
    return a


def _jacobian(pl: _Pipeline) -> np.ndarray:
    """d(angles)/d(lengths), shape (..., 6, 6), from the pipeline's cofactors.

    a_e = atan2(sigma, c_ij) with sigma = sqrt(-det H) sinh x_e, and
    sigma^2 + c_ij^2 = r_e^2 by Jacobi's identity, so
    da_e = (c_ij dsigma - sigma dc_ij) / r_e^2.  Since d(-det H)/dx_g =
    2 c_g sinh x_g, dsigma/dx_g = sinh x_e c_g sinh x_g / sqrt(-det H),
    plus sqrt(-det H) cosh x_e when g = e.
    """
    cf, ce, ca, cb, cc, cd = pl.ch[_COF_E]
    sg = pl.sh[_COF_E]
    # dc_ij/dx = sinh x * dc_ij/d(cosh x), rows in the order of _COF_E
    dcof = np.empty(sg.shape)
    dcof[0] = -sg[1] * sg[1]
    dcof[1] = ca * cd + cc * cb - 2.0 * cf * ce
    dcof[2] = cb + ce * cd
    dcof[3] = ca + ce * cc
    dcof[4] = cd + ce * cb
    dcof[5] = cc + ce * ca
    np.multiply(sg, dcof, out=dcof)
    sh, root = pl.sh, pl.root
    dsigma = sh[:, None] * (pl.cof * sh / root)
    dsigma[_DIAG, _DIAG] += root * pl.ch
    J = pl.cof[::-1, None] * dsigma - (root * sh)[:, None] * dcof[_JAC_ROW, _JAC_COL]
    J /= (pl.r * pl.r)[:, None]
    return J.transpose((*range(2, J.ndim), 0, 1))


def jacobian_angles_lengths(x) -> np.ndarray:
    """d(angles)/d(lengths), shape (..., 6, 6); symmetric positive definite."""
    pl = _pipeline(_as_lengths(x))
    _raise_inadmissible(pl)
    return _jacobian(pl)


# perfbench/spans.py traces this function under its historical name.
def _newton_lengths(target: np.ndarray) -> np.ndarray:
    """Invert the angle map in closed form, row by row: target (..., 6).

    With the face Gram matrix G and its cofactors c, the edge {v, w} has
    cosh x = |c_vw| / sqrt(c_vv c_ww) (Ushijima).  Jacobi's identity
    c_vw^2 - c_vv c_ww = -det G sin^2 a turns that into a sinh, which keeps
    the digits of short edges.  c_vv, the Gram determinant of the three
    faces at v, is -4 cos(s/2) prod_i cos(s/2 - a_i) over the angles a_i at
    v with sum s: a product, free of cancellation as s nears pi.
    """
    a = np.asarray(target, dtype=float)
    half = 0.5 * vertex_angle_sums(a)
    c = -4.0 * np.cos(half) * np.cos(half[..., None] - a[..., _VERT_E]).prod(axis=-1)
    root = np.sqrt(-np.linalg.det(_face_gram(a)))[..., None]
    v, w = _EDGE_VW[:, 0], _EDGE_VW[:, 1]
    return _as_lengths(np.arcsinh(root * np.sin(a) / np.sqrt(c[..., v] * c[..., w])))


def lengths_from_angles(a) -> np.ndarray:
    """Invert the angle map for admissible angle vectors (..., 6).

    Each target must lie strictly inside the angle polytope (validate_angles:
    each angle in (0, pi), vertex sums below pi); boundary targets are
    rejected since the corresponding tetrahedron degenerates.
    """
    return _newton_lengths(validate_angles(a))


def _clausen_coefficients(n: int) -> np.ndarray:
    """c_k = |B_2k| / (2k (2k+1)!) for k = 1..n, from the tangent numbers.

    T_k = 1, 2, 16, 272, ... come from the Brent-Harvey integer recurrence,
    and |B_2k| = 2k T_k / (4^k (4^k - 1)); each c_k is one correctly rounded
    integer quotient.
    """
    T = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    return np.array([T[k] / (4 ** k * (4 ** k - 1) * math.factorial(2 * k + 1))
                     for k in range(1, n + 1)])


# At |theta| = pi the series terms fall by 4 per step; 25 of them leave a
# tail below 1e-17.
_CLAUSEN_C = _clausen_coefficients(25)


def clausen(theta) -> np.ndarray:
    """Clausen's function Cl_2(theta) = -int_0^theta log|2 sin(s/2)| ds.

    Reduced to [-pi, pi], then summed as the Bernoulli series
    theta - theta log|theta| + sum_k c_k theta^(2k+1), which converges for
    |theta| < 2 pi.  Cl_2(theta) = Im Li_2(e^(i theta)).
    """
    t = np.asarray(theta, dtype=float)
    t = t - 2.0 * math.pi * np.round(t / (2.0 * math.pi))
    t2 = t * t
    series = np.zeros_like(t)
    for c in _CLAUSEN_C[::-1]:
        series = series * t2 + c
    with np.errstate(divide="ignore", invalid="ignore"):
        value = t * (1.0 - np.log(np.abs(t)) + t2 * series)
    return np.where(t == 0.0, 0.0, value)


_OPPOSITE = np.array([(e, 5 - e) for e in range(3)])
# Faces are numbered by their opposite vertex: edge {v, w} is where the
# faces opposite the other two vertices meet.
_EDGE_FACES = np.array([[f for f in range(4) if f not in vw] for vw in EDGE_VERTEX_PAIRS])
# Im U(z) of Murakami-Yano as Clausen terms: z itself, z times the four
# edges outside each opposite pair (+), and -z times the three edges at
# each vertex (-).
_MY_SIGNS = np.array([1.0] * 4 + [-1.0] * 4)


def _face_gram(a: np.ndarray) -> np.ndarray:
    """Face Gram matrices (..., 4, 4): unit diagonal, -cos of the angle
    along the edge where two faces meet; det < 0 on the angle polytope."""
    G = np.zeros(a.shape[:-1] + (4, 4)) + np.eye(4)
    f, g = _EDGE_FACES[:, 0], _EDGE_FACES[:, 1]
    G[..., f, g] = G[..., g, f] = -np.cos(a)
    return G


def volume(a) -> np.ndarray:
    """Hyperbolic volume of hyperideal tetrahedra from their dihedral angles.

    a: (..., 6) angles, each in (0, pi) with vertex sums below pi.  This is
    the Murakami-Yano formula as Ushijima extended it to truncated
    tetrahedra: with the face Gram matrix G (`_face_gram`) the two roots
    z-+ of Murakami-Yano's quadratic lie on the unit circle, and
    V = (1/2) Im(U(z-) - U(z+)) is a signed sum of 16 Clausen terms.
    """
    a = np.asarray(a, dtype=float)
    total = a.sum(axis=-1, keepdims=True)
    pairs = a[..., _OPPOSITE].sum(axis=-1)
    vsums = vertex_angle_sums(a)
    root = np.sqrt(-np.linalg.det(_face_gram(a)))
    sines = np.sin(a)
    b = (sines[..., _OPPOSITE[:, 0]] * sines[..., _OPPOSITE[:, 1]]).sum(axis=-1)
    # e^(i sum) over each opposite pair, each face and all six edges
    den = np.exp(1j * np.concatenate([pairs, total - vsums, total], axis=-1)).sum(axis=-1)
    # z-+ = -2 (b -+ i root) / den; only their arguments enter.
    arg_z = np.stack([np.arctan2(root, -b), np.arctan2(-root, -b)], axis=-1)
    arg_z -= np.angle(den)[..., None]
    shifts = np.concatenate([np.zeros_like(total), total - pairs, math.pi + vsums], axis=-1)
    im_u = 0.5 * clausen(arg_z[..., :, None] + shifts[..., None, :]) @ _MY_SIGNS
    return 0.5 * (im_u[..., 0] - im_u[..., 1])


def schlafli_segment(a_start, a_end) -> float:
    """Volume change along the angle segment: the integral of -(1/2) x . da.

    Both endpoints must lie strictly inside the angle polytope.  By the
    Schlafli formula this depends only on the endpoints.
    """
    return float(volume(validate_angles(a_end)) - volume(validate_angles(a_start)))


def schlafli_potential_of_angles(a) -> float:
    """Volume relative to the regular unit-length shape, as a function of angles.

    Strictly concave on the angle polytope; its gradient is -x_i/2 where x
    realizes the angles.
    """
    return float(volume(validate_angles(a)) - V_REF)


def schlafli_potential(x) -> float:
    """Volume relative to the regular unit-length shape, as a function of lengths."""
    return float(volume(angles_from_lengths(x)) - V_REF)


REF_LENGTHS = np.ones(6)
REF_LENGTHS.flags.writeable = False
REF_ANGLES = angles_from_lengths(REF_LENGTHS)
REF_ANGLES.flags.writeable = False
V_REF = float(volume(REF_ANGLES))
