"""Shared fixtures: frozen test instances and admissible-length sampling.

The gluing tables below were produced once by ``search_gluings`` and are
frozen here so unit tests do not depend on the search; one test in
test_triangulation.py asserts the search still reproduces them.
"""

import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest

from hyperideal import metric as metric_mod
from hyperideal import tetgeom
from hyperideal import triangulation as tri_mod
from hyperideal.propsuite import sample_admissible, schlafli_leg  # noqa: F401

# First 2-tet gluing with a single edge class and a chi < 0 link, in search
# order: one valence-12 edge, one genus-2 boundary surface.
CENSUS_JSON = {
    "tet_count": 2,
    "pairings": [
        [0, 0, 0, 1, [1, 2, 3, 0]],
        [0, 1, 0, 0, [3, 0, 1, 2]],
        [0, 2, 1, 0, [1, 2, 0, 3]],
        [0, 3, 1, 1, [0, 2, 3, 1]],
        [1, 0, 0, 2, [2, 0, 1, 3]],
        [1, 1, 0, 3, [0, 3, 1, 2]],
        [1, 2, 1, 3, [1, 2, 3, 0]],
        [1, 3, 1, 2, [3, 0, 1, 2]],
    ],
}

# First 2-tet gluing whose boundary links all have chi = 0 (two edge
# classes of valences 11 and 1, one torus link).
TORUS_JSON = {
    "tet_count": 2,
    "pairings": [
        [0, 0, 0, 1, [1, 0, 2, 3]],
        [0, 1, 0, 0, [1, 0, 2, 3]],
        [0, 2, 1, 0, [1, 2, 0, 3]],
        [0, 3, 1, 1, [0, 2, 3, 1]],
        [1, 0, 0, 2, [2, 0, 1, 3]],
        [1, 1, 0, 3, [0, 3, 1, 2]],
        [1, 2, 1, 3, [1, 2, 3, 0]],
        [1, 3, 1, 2, [3, 0, 1, 2]],
    ],
}

# First 2-tet gluing with three or more edge classes (valences 10, 1, 1; a
# sphere link), as propsuite._search_instances finds it.
MULTI_JSON = {
    "tet_count": 2,
    "pairings": [
        [0, 0, 0, 1, [1, 0, 2, 3]],
        [0, 1, 0, 0, [1, 0, 2, 3]],
        [0, 2, 1, 0, [1, 2, 0, 3]],
        [0, 3, 1, 1, [0, 2, 3, 1]],
        [1, 0, 0, 2, [2, 0, 1, 3]],
        [1, 1, 0, 3, [0, 3, 1, 2]],
        [1, 2, 1, 3, [0, 1, 3, 2]],
        [1, 3, 1, 2, [0, 1, 3, 2]],
    ],
}

# First draw of the benchmark sampler for six tetrahedra with seed 7
# (perfbench/sampler.py: sample(6, random.Random(7))): three edge classes of
# valences 5, 1 and 30.  The flow from x = 1 leaves the admissible set.
SAMPLED6_JSON = {
    "tet_count": 6,
    "pairings": [
        [0, 0, 2, 0, [0, 3, 2, 1]],
        [0, 1, 0, 2, [0, 2, 1, 3]],
        [0, 2, 0, 1, [0, 2, 1, 3]],
        [0, 3, 4, 1, [0, 3, 2, 1]],
        [1, 0, 2, 2, [2, 3, 1, 0]],
        [1, 1, 4, 2, [0, 2, 1, 3]],
        [1, 2, 4, 3, [0, 1, 3, 2]],
        [1, 3, 3, 2, [3, 0, 1, 2]],
        [2, 0, 0, 0, [0, 3, 2, 1]],
        [2, 1, 2, 3, [1, 3, 0, 2]],
        [2, 2, 1, 0, [3, 2, 0, 1]],
        [2, 3, 2, 1, [2, 0, 3, 1]],
        [3, 0, 5, 0, [0, 1, 3, 2]],
        [3, 1, 4, 0, [3, 0, 1, 2]],
        [3, 2, 1, 3, [1, 2, 3, 0]],
        [3, 3, 5, 2, [1, 3, 0, 2]],
        [4, 0, 3, 1, [1, 2, 3, 0]],
        [4, 1, 0, 3, [0, 3, 2, 1]],
        [4, 2, 1, 1, [0, 2, 1, 3]],
        [4, 3, 1, 2, [0, 1, 3, 2]],
        [5, 0, 3, 0, [0, 1, 3, 2]],
        [5, 1, 5, 3, [2, 3, 1, 0]],
        [5, 2, 3, 3, [2, 0, 3, 1]],
        [5, 3, 5, 1, [3, 2, 0, 1]],
    ],
}

# First 12-tet draw of the benchmark's ntet workload with seed 10
# (perfbench/sampler.py: sample(8, rng) then sample(12, rng), rng =
# random.Random(10)): five edge classes of valences 17, 25, 23, 4 and 3.
# Gradient ascent from the witness of its 10n-row angle LP
# (ten_n_row_angle_lp) reaches the float resolution of the volume while the
# gradient is still above 1e-8 (254 iterations); Newton ascent needs 6,
# from that witness and from lp_feasibility's.
NTET12_JSON = {
    "tet_count": 12,
    "pairings": [
        [0, 0, 10, 1, [1, 0, 2, 3]],
        [0, 1, 0, 2, [3, 2, 0, 1]],
        [0, 2, 0, 1, [2, 3, 1, 0]],
        [0, 3, 6, 1, [0, 3, 2, 1]],
        [1, 0, 9, 1, [1, 3, 0, 2]],
        [1, 1, 7, 1, [3, 1, 2, 0]],
        [1, 2, 11, 0, [1, 3, 0, 2]],
        [1, 3, 4, 0, [1, 2, 3, 0]],
        [2, 0, 11, 3, [3, 2, 0, 1]],
        [2, 1, 9, 0, [1, 0, 2, 3]],
        [2, 2, 3, 2, [0, 3, 2, 1]],
        [2, 3, 4, 2, [1, 3, 0, 2]],
        [3, 0, 9, 3, [3, 1, 2, 0]],
        [3, 1, 10, 3, [1, 3, 0, 2]],
        [3, 2, 2, 2, [0, 3, 2, 1]],
        [3, 3, 5, 3, [1, 0, 2, 3]],
        [4, 0, 1, 3, [3, 0, 1, 2]],
        [4, 1, 6, 0, [3, 0, 1, 2]],
        [4, 2, 2, 3, [2, 0, 3, 1]],
        [4, 3, 8, 1, [0, 3, 2, 1]],
        [5, 0, 10, 2, [2, 1, 0, 3]],
        [5, 1, 7, 3, [1, 3, 0, 2]],
        [5, 2, 9, 2, [3, 1, 2, 0]],
        [5, 3, 3, 3, [1, 0, 2, 3]],
        [6, 0, 4, 1, [1, 2, 3, 0]],
        [6, 1, 0, 3, [0, 3, 2, 1]],
        [6, 2, 11, 2, [3, 1, 2, 0]],
        [6, 3, 7, 2, [0, 1, 3, 2]],
        [7, 0, 8, 3, [3, 0, 1, 2]],
        [7, 1, 1, 1, [3, 1, 2, 0]],
        [7, 2, 6, 3, [0, 1, 3, 2]],
        [7, 3, 5, 1, [2, 0, 3, 1]],
        [8, 0, 11, 1, [1, 2, 3, 0]],
        [8, 1, 4, 3, [0, 3, 2, 1]],
        [8, 2, 10, 0, [2, 1, 0, 3]],
        [8, 3, 7, 0, [1, 2, 3, 0]],
        [9, 0, 2, 1, [1, 0, 2, 3]],
        [9, 1, 1, 0, [2, 0, 3, 1]],
        [9, 2, 5, 2, [3, 1, 2, 0]],
        [9, 3, 3, 0, [3, 1, 2, 0]],
        [10, 0, 8, 2, [2, 1, 0, 3]],
        [10, 1, 0, 0, [1, 0, 2, 3]],
        [10, 2, 5, 0, [2, 1, 0, 3]],
        [10, 3, 3, 1, [2, 0, 3, 1]],
        [11, 0, 1, 2, [2, 0, 3, 1]],
        [11, 1, 8, 0, [3, 0, 1, 2]],
        [11, 2, 6, 2, [3, 1, 2, 0]],
        [11, 3, 2, 0, [2, 3, 1, 0]],
    ],
}

def spec_json(spec):
    """The JSON object of a gluing: one row [t, f, t2, f2, s] per face."""
    return {"tet_count": spec.tet_count,
            "pairings": [[i >> 2, i & 3, t2, f2, list(s)]
                         for i, (t2, f2, s) in enumerate(spec.pairings)]}


# Regular equilibrium edge length: cosh x* = sqrt(3)/(2 sqrt(3) - 2), the
# regular shape whose dihedral angles are all pi/6.
XSTAR = 0.5961338948908375


@pytest.fixture(scope="session")
def census_spec():
    return tri_mod.GluingSpec.from_json_obj(CENSUS_JSON)


@pytest.fixture(scope="session")
def census_tri(census_spec):
    return tri_mod.build(census_spec)


@pytest.fixture(scope="session")
def torus_spec():
    return tri_mod.GluingSpec.from_json_obj(TORUS_JSON)


@pytest.fixture(scope="session")
def torus_tri(torus_spec):
    return tri_mod.build(torus_spec, enforce_link_hypothesis=False)


@pytest.fixture(scope="session")
def multi_tri():
    return tri_mod.build(tri_mod.GluingSpec.from_json_obj(MULTI_JSON),
                         enforce_link_hypothesis=False)


@pytest.fixture(scope="session")
def sampled6_tri():
    return tri_mod.build(tri_mod.GluingSpec.from_json_obj(SAMPLED6_JSON))


@pytest.fixture(scope="session")
def ntet12_tri():
    return tri_mod.build(tri_mod.GluingSpec.from_json_obj(NTET12_JSON))


@pytest.fixture(scope="session")
def sampler():
    """The benchmark's seeded gluing sampler, perfbench/sampler.py.  It
    filters only by connectivity and the package's own hypotheses."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "sampler.py"
    spec = importlib.util.spec_from_file_location("perfbench_sampler", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def one_edge128_tri(sampler):
    """First one-edge draw of the benchmark sampler at n = 128 with seed 1:
    sample(128, random.Random(1), one_edge=True).  Too large to freeze here."""
    return sampler.sample(128, random.Random(1), one_edge=True)[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def census_metric(tri, value=1.0):
    return metric_mod.ConeMetric(tri=tri, x=np.full(tri.n_edges, value))


def state(m):
    """The metric's Evaluation; raises if some tetrahedron is inadmissible."""
    return metric_mod.evaluate(m.tri, m.x).raise_if_inadmissible()


def ten_n_row_angle_lp(tri):
    """The angle LP with one row per angle: (c, solve_lp keywords) over the
    6n angles, ep and em.  Edge classes sum to 2*pi, each vertex triple
    plus ep - em is at most pi, and each angle is at least ep - em: 4n + 6n
    inequality rows, without lp_feasibility's substitution a = b + ep.  Its
    optimum in eps is the package LP's."""
    N = tri.tet_count
    nA, nV = 6 * N, 4 * N
    A_eq = np.zeros((tri.n_edges, nA + 2))
    A_eq[:, :nA] = tri.quotient.matrix()
    t, v = np.divmod(np.arange(nV), 4)
    A_ub = np.zeros((nV + nA, nA + 2))
    A_ub[np.arange(nV)[:, None], 6 * t[:, None] + tetgeom._VERT_E[v]] = 1.0
    A_ub[nV + np.arange(nA), np.arange(nA)] = -1.0
    A_ub[:, nA], A_ub[:, nA + 1] = 1.0, -1.0
    c = np.zeros(nA + 2)
    c[nA], c[nA + 1] = -1.0, 1.0
    return c, dict(A_eq=A_eq, b_eq=np.full(tri.n_edges, 2 * math.pi), A_ub=A_ub,
                   b_ub=np.concatenate([np.full(nV, math.pi), np.zeros(nA)]))
