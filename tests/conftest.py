"""Shared fixtures: frozen test instances and admissible-length sampling.

The gluing tables below were produced once by ``search_gluings`` and are
frozen here so unit tests do not depend on the search; one test in
test_triangulation.py asserts the search still reproduces them.
"""

import numpy as np
import pytest

from hyperideal import metric as metric_mod
from hyperideal import triangulation as tri_mod
from hyperideal.propsuite import sample_admissible  # noqa: F401

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
# sphere link), as propsuite._multiclass_triangulation finds it.
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


def census_metric(tri, value=1.0):
    return metric_mod.ConeMetric(tri=tri, x=np.full(tri.n_edges, value))
