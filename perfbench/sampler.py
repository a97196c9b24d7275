"""Seeded sampler of closed, connected, orientable n-tetrahedron gluings.

Faces are paired by a random perfect matching and every pairing carries an
odd permutation.  An odd pairing preserves a coherent orientation of the two
tetrahedra it joins (see `triangulation._check_orientable`), so every draw is
orientable by construction.  Draws are filtered only by connectivity and by
the package's own hypotheses: every boundary link has Euler characteristic
< 0, and, when asked, the gluing has a single edge class.  Nothing is filtered
by how a solver behaves on the draw or how long it takes.
"""

from __future__ import annotations

import random
from itertools import permutations

from hyperideal import triangulation as tri_mod
from hyperideal.errors import BoundaryHypothesisError

# ODD_PERMS[f][f2]: the three odd permutations of {0,1,2,3} sending f to f2.
ODD_PERMS = tuple(
    tuple(tuple(s for s in permutations(range(4))
                if s[f] == f2 and tri_mod.perm_sign(s) == -1)
          for f2 in range(4))
    for f in range(4))


def draw_spec(n: int, rng: random.Random) -> tri_mod.GluingSpec:
    """One random face pairing of n tetrahedra with odd permutations."""
    faces = [(t, f) for t in range(n) for f in range(4)]
    rng.shuffle(faces)
    table = {}
    for i in range(0, 4 * n, 2):
        (t, f), (t2, f2) = faces[i], faces[i + 1]
        s = rng.choice(ODD_PERMS[f][f2])
        table[(t, f)] = (t2, f2, s)
        table[(t2, f2)] = (t, f, tri_mod.perm_inverse(s))
    return tri_mod.GluingSpec(
        tet_count=n,
        pairings=tuple(table[(t, f)] for t in range(n) for f in range(4)))


def is_connected(spec: tri_mod.GluingSpec) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        t = stack.pop()
        for f in range(4):
            t2 = spec.pairing(t, f)[0]
            if t2 not in seen:
                seen.add(t2)
                stack.append(t2)
    return len(seen) == spec.tet_count


def sample(n: int, rng: random.Random, one_edge: bool = False) -> tuple:
    """First draw that is connected, has every link chi < 0 and, with
    one_edge, a single edge class.  Returns (triangulation, draws tried)."""
    tries = 0
    while True:
        tries += 1
        spec = draw_spec(n, rng)
        if not is_connected(spec):
            continue
        try:
            tri = tri_mod.build(spec)
        except BoundaryHypothesisError:
            continue
        if one_edge and tri.n_edges != 1:
            continue
        return tri, tries
