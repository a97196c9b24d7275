"""Gluing validation, derived classes, boundary links, and the search."""

from itertools import permutations

import numpy as np
import pytest

from hyperideal import triangulation as T
from hyperideal.errors import BoundaryHypothesisError, GluingError

from conftest import CENSUS_JSON, MULTI_JSON, NTET12_JSON, SAMPLED6_JSON, TORUS_JSON

PREDICATES = (T.any_gluing, T.single_hyperbolic_class, T.all_torus_links)


# ---------------------------------------------------------------------------
# References: the permutation loops, the tuple-keyed union-find `build` and
# the unpruned search that the tables and the orientation pruning replaced.

def _ref_perm_inverse(s):
    inv = [0, 0, 0, 0]
    for i, si in enumerate(s):
        inv[si] = i
    return tuple(inv)


def _ref_perm_sign(s):
    sign = 1
    for i in range(4):
        for j in range(i + 1, 4):
            if s[i] > s[j]:
                sign = -sign
    return sign


class _RefDSU:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def orbits(self):
        groups = {}
        for x in self.parent:
            groups.setdefault(self.find(x), []).append(x)
        return [sorted(g) for g in groups.values()]


def _ref_check_links(links):
    bad = [l for l in links if l.chi >= 0]
    if bad:
        raise BoundaryHypothesisError(
            "boundary link(s) "
            + ", ".join(f"{l.vertex_class} (chi = {l.chi})" for l in bad)
            + " violate the negative Euler characteristic hypothesis",
            chi_by_class=[l.chi for l in links])


def _ref_build(spec, enforce_link_hypothesis=True):
    spec.validate()
    T._check_orientable(spec)
    n = spec.tet_count
    edges = _RefDSU([(t, e) for t in range(n) for e in range(6)])
    verts = _RefDSU([(t, v) for t in range(n) for v in range(4)])
    tri_pts = _RefDSU([(t, v, w) for t in range(n)
                       for v in range(4) for w in range(4) if v != w])
    for t in range(n):
        for f in range(4):
            t2, _f2, s = spec.pairing(t, f)
            others = [v for v in range(4) if v != f]
            for i in range(3):
                a = others[i]
                verts.union((t, a), (t2, s[a]))
                for j in range(i + 1, 3):
                    b = others[j]
                    edges.union((t, T.edge_index(a, b)),
                                (t2, T.edge_index(s[a], s[b])))
                for b in others:
                    if b != a:
                        tri_pts.union((t, a, b), (t2, s[a], s[b]))

    edge_orbits = sorted(edges.orbits(), key=lambda g: g[0])
    edge_classes = tuple(T.EdgeClass(index=i, corners=tuple(g))
                         for i, g in enumerate(edge_orbits))
    class_of = [[-1] * 6 for _ in range(n)]
    for ec in edge_classes:
        for (t, e) in ec.corners:
            class_of[t][e] = ec.index
    vertex_classes = tuple(tuple(g) for g in
                           sorted(verts.orbits(), key=lambda g: g[0]))
    pt_root_class = {}
    for j, vc in enumerate(vertex_classes):
        members = set(vc)
        for (t, v, w) in tri_pts.parent:
            if (t, v) in members:
                pt_root_class[tri_pts.find((t, v, w))] = j
    links = []
    for j, vc in enumerate(vertex_classes):
        faces = len(vc)
        sides = 3 * faces // 2
        points = sum(1 for cls in pt_root_class.values() if cls == j)
        links.append(T.BoundaryLink(vertex_class=j, chi=points - sides + faces,
                                    triangles=faces, sides=sides,
                                    corners=points))
    links = tuple(links)
    if enforce_link_hypothesis:
        _ref_check_links(links)
    return T.Triangulation(spec=spec, edge_classes=edge_classes,
                           vertex_classes=vertex_classes, boundary_links=links,
                           edge_class_of=tuple(tuple(r) for r in class_of))


def _ref_search(tet_count, predicate):
    faces = [(t, f) for t in range(tet_count) for f in range(4)]
    table = {}
    found = []

    def connected():
        seen = {0}
        queue = [0]
        while queue:
            t = queue.pop()
            for f in range(4):
                t2 = table[(t, f)][0]
                if t2 not in seen:
                    seen.add(t2)
                    queue.append(t2)
        return len(seen) == tet_count

    def place(i):
        while i < len(faces) and faces[i] in table:
            i += 1
        if i == len(faces):
            if not connected():
                return
            spec = T.GluingSpec(tet_count=tet_count,
                                pairings=tuple(table[fc] for fc in faces))
            try:
                tri = _ref_build(spec, enforce_link_hypothesis=False)
            except GluingError:
                return
            if predicate(tri):
                found.append(spec)
            return
        t, f = faces[i]
        for j in range(i + 1, len(faces)):
            t2, f2 = faces[j]
            if (t2, f2) in table:
                continue
            for s in permutations(range(4)):
                if s[f] != f2:
                    continue
                table[(t, f)] = (t2, f2, s)
                table[(t2, f2)] = (t, f, _ref_perm_inverse(s))
                place(i + 1)
                del table[(t, f)]
                del table[(t2, f2)]

    place(0)
    return found


def _outcome(build, spec, enforce):
    try:
        return build(spec, enforce_link_hypothesis=enforce)
    except BoundaryHypothesisError as exc:
        return str(exc), exc.chi_by_class


@pytest.fixture(scope="module")
def two_tet_reference():
    """Every 2-tet gluing the reference search keeps, with its reference
    triangulation, in search order (one reference search per session)."""
    built = []

    def record(tri):
        built.append(tri)
        return True

    specs = _ref_search(2, record)
    assert [tri.spec for tri in built] == specs
    return built


def test_edge_conventions():
    assert T.EDGE_VERTEX_PAIRS == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert T.OPPOSITE_EDGE == (5, 4, 3, 2, 1, 0)
    for e, (a, b) in enumerate(T.EDGE_VERTEX_PAIRS):
        assert T.edge_index(a, b) == e
        assert T.edge_index(b, a) == e
        # opposite edge joins the complementary vertex pair
        oa, ob = T.EDGE_VERTEX_PAIRS[T.OPPOSITE_EDGE[e]]
        assert {a, b} | {oa, ob} == {0, 1, 2, 3}
    for v, edges in enumerate(T.VERTEX_EDGES):
        assert all(v in T.EDGE_VERTEX_PAIRS[e] for e in edges)


def test_perm_helpers():
    assert T.perm_inverse((1, 2, 3, 0)) == (3, 0, 1, 2)
    assert T.perm_sign((0, 1, 2, 3)) == 1
    assert T.perm_sign((1, 0, 2, 3)) == -1
    assert T.perm_sign((1, 2, 3, 0)) == -1  # 4-cycle is odd


def test_perm_tables_match_loops():
    for s in permutations(range(4)):
        assert T.perm_inverse(s) == _ref_perm_inverse(s)
        assert T.perm_inverse(list(s)) == _ref_perm_inverse(s)
        assert T.perm_sign(s) == _ref_perm_sign(s)


def test_census_build(census_tri):
    assert census_tri.tet_count == 2
    assert census_tri.n_edges == 1
    assert census_tri.edge_classes[0].valence == 12
    assert len(census_tri.edge_classes[0].corners) == 12
    assert len(census_tri.vertex_classes) == 1
    (link,) = census_tri.boundary_links
    assert link.chi == -2
    # closed surface built from 8 triangles: E = 3F/2
    assert link.triangles == 8
    assert link.sides == 12
    assert link.chi == link.corners - link.sides + link.triangles


def test_torus_build(torus_tri):
    assert torus_tri.n_edges == 2
    assert sorted(ec.valence for ec in torus_tri.edge_classes) == [1, 11]
    (link,) = torus_tri.boundary_links
    assert link.chi == 0


def test_link_hypothesis_enforced(torus_spec):
    with pytest.raises(BoundaryHypothesisError) as exc:
        T.build(torus_spec)
    assert exc.value.chi_by_class == (0,)


def test_json_roundtrip(census_spec):
    obj = census_spec.to_json_obj()
    assert obj == CENSUS_JSON
    assert T.GluingSpec.from_json_obj(obj) == census_spec


@pytest.mark.parametrize("mutate, message", [
    (lambda o: o.pop("tet_count"), "tet_count"),
    (lambda o: o.update(tet_count=0), "tet_count"),
    (lambda o: o.update(pairings=o["pairings"][:-1]), "pairings"),
    (lambda o: o["pairings"][0].__setitem__(4, [0, 0, 1, 2]), "permutation"),
    (lambda o: o["pairings"][0].__setitem__(2, 5), "range"),
])
def test_malformed_json_rejected(mutate, message):
    import copy
    obj = copy.deepcopy(CENSUS_JSON)
    mutate(obj)
    with pytest.raises(GluingError):
        T.GluingSpec.from_json_obj(obj)


def _census_with(i, entry):
    # The census gluing with pairing entry i replaced, not yet validated.
    pairings = list(T.GluingSpec.from_json_obj(CENSUS_JSON).pairings)
    pairings[i] = entry
    return T.GluingSpec(tet_count=2, pairings=tuple(pairings))


@pytest.mark.parametrize("i, entry, message", [
    (0, (0, 1.0, (1, 2, 3, 0)), r"face \(0,0\) glued to face \(0,1\.0\)"),
    (0, (0, 1, 5), r"face \(0,0\) carries an invalid permutation 5"),
    (0, (0, 1, (1, 0, 2, "3")), r"face \(0,0\) carries an invalid permutation"),
    # entry 0 is sound, but the partner it points to is no triple
    (1, 5, r"malformed pairing entry for face \(0,1\)"),
], ids=("float_face", "non_sequence_perm", "non_int_perm_entry",
        "malformed_partner"))
def test_validate_locates_malformed_entries(i, entry, message):
    with pytest.raises(GluingError, match=message):
        _census_with(i, entry).validate()


def test_validate_rejects_non_sequence_pairings():
    with pytest.raises(GluingError, match="pairings must be a tuple or list"):
        T.GluingSpec(tet_count=1, pairings=5).validate()


def test_validate_rejects_bool_tet_count():
    # True passes isinstance(n, int), and to_json_obj would then write
    # "tet_count": true, which from_json_obj refuses
    pairings = T.search_gluings(1, T.any_gluing)[0].pairings
    T.GluingSpec(tet_count=1, pairings=pairings).validate()
    with pytest.raises(GluingError, match="tet_count must be a positive integer"):
        T.GluingSpec(tet_count=True, pairings=pairings).validate()


def test_non_involutive_rejected():
    import copy
    obj = copy.deepcopy(CENSUS_JSON)
    # break the inverse pairing: (0,1) no longer mirrors (0,0)
    obj["pairings"][1] = [0, 1, 0, 0, [2, 3, 0, 1]]
    with pytest.raises(GluingError, match="involut"):
        T.GluingSpec.from_json_obj(obj).validate()


def test_self_paired_face_rejected():
    # a face glued to itself induces a fixed-point-free involution on 3
    # objects, which cannot exist, so validation must reject it
    obj = {
        "tet_count": 1,
        "pairings": [
            [0, 0, 0, 0, [0, 2, 1, 3]],
            [0, 1, 0, 2, [0, 2, 1, 3]],
            [0, 2, 0, 1, [0, 2, 1, 3]],
            [0, 3, 0, 3, [1, 0, 2, 3]],
        ],
    }
    with pytest.raises(GluingError):
        T.GluingSpec.from_json_obj(obj)


def test_rebuild_idempotent(census_spec):
    a = T.build(census_spec)
    b = T.build(census_spec)
    assert [ec.corners for ec in a.edge_classes] == \
           [ec.corners for ec in b.edge_classes]
    assert a.vertex_classes == b.vertex_classes
    assert [l.chi for l in a.boundary_links] == [l.chi for l in b.boundary_links]


def test_edge_classes_lex_ordered(census_tri, torus_tri):
    for tri in (census_tri, torus_tri):
        firsts = [ec.corners[0] for ec in tri.edge_classes]
        assert firsts == sorted(firsts)
        for ec in tri.edge_classes:
            assert list(ec.corners) == sorted(ec.corners)


def test_search_reproduces_frozen_instances():
    census = T.search_gluings(2, T.single_hyperbolic_class)
    assert len(census) == 4416
    assert census[0].to_json_obj() == CENSUS_JSON
    torus = T.search_gluings(2, T.all_torus_links)
    assert torus[0].to_json_obj() == TORUS_JSON


def test_search_one_tet():
    assert T.search_gluings(1, T.single_hyperbolic_class) == []
    any1 = T.search_gluings(1, T.any_gluing)
    assert len(any1) == 27
    # deterministic order: rerun gives the identical list
    assert T.search_gluings(1, T.any_gluing) == any1


def test_search_rejects_large_counts():
    with pytest.raises(ValueError):
        T.search_gluings(3, T.any_gluing)


def test_search_skips_disconnected():
    # every emitted 2-tet gluing actually connects its two tetrahedra
    for spec in T.search_gluings(2, T.any_gluing)[:50]:
        partners = {spec.pairing(0, f)[0] for f in range(4)}
        assert 1 in partners


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.__name__)
def test_search_matches_reference_one_tet(predicate):
    assert T.search_gluings(1, predicate) == _ref_search(1, predicate)


@pytest.mark.parametrize("predicate", PREDICATES, ids=lambda p: p.__name__)
def test_search_matches_reference_two_tet(two_tet_reference, predicate):
    # The reference search keeps a spec iff predicate(reference build) holds,
    # so filtering its full record gives its result for each predicate.
    want = [tri.spec for tri in two_tet_reference if predicate(tri)]
    assert T.search_gluings(2, predicate) == want


def _search_leaves(tet_count):
    # Every triangulation the search hands its predicate, in order.
    leaves = []
    T.search_gluings(tet_count, lambda tri: leaves.append(tri) or True)
    return leaves


def test_search_leaves_match_build(two_tet_reference):
    # Leaves are read off the search's live union-find, not made by build.
    assert _search_leaves(2) == two_tet_reference
    leaves = _search_leaves(1)
    assert len(leaves) == 27
    assert leaves == [T.build(tri.spec, enforce_link_hypothesis=False)
                      for tri in leaves]


@pytest.fixture
def derivations(monkeypatch):
    """The spec of every triangulation whose classes get derived, in order."""
    calls = []
    assemble = T._assemble

    def counted(spec, *parents):
        calls.append(spec)
        return assemble(spec, *parents)

    monkeypatch.setattr(T, "_assemble", counted)
    return calls


def test_search_any_derives_no_leaf(derivations):
    assert len(T.search_gluings(2, T.any_gluing)) == 15552
    assert derivations == []


def test_census_search_derives_only_one_edge_leaves(derivations):
    # Every one-edge 2-tet leaf is a census match, so each derived leaf is.
    census = T.search_gluings(2, T.single_hyperbolic_class)
    assert len(census) == 4416
    assert derivations == census


def test_build_derives_once(derivations, census_spec):
    tri = T.build(census_spec)  # reads the links to check the hypothesis
    assert derivations == [census_spec]
    assert (tri.n_edges, tri.edge_class_of) == (1, ((0,) * 6, (0,) * 6))
    assert derivations == [census_spec]
    lax = T.build(census_spec, enforce_link_hypothesis=False)
    assert derivations == [census_spec]
    assert lax == tri
    assert derivations == [census_spec] * 2


def test_leaf_n_edges_derives_nothing(two_tet_reference, derivations):
    counts = []
    T.search_gluings(2, lambda tri: counts.append(tri.n_edges) or True)
    assert derivations == []
    assert counts == [len(ref.edge_classes) for ref in two_tet_reference]


def test_leaf_derived_after_the_search(derivations):
    # A leaf keeps its own copy of the union-find, which the search undoes
    # after the predicate returns.
    early = []

    def derive_now(tri):
        assert tri.edge_classes
        early.append(tri)
        return True

    T.search_gluings(2, derive_now)
    assert len(derivations) == 15552
    late = _search_leaves(2)
    assert len(derivations) == 15552
    assert late == early
    assert len(derivations) == 2 * 15552


def test_underived_leaf_hash_and_repr(two_tet_reference):
    assert [hash(tri) for tri in _search_leaves(2)] == \
           [hash(ref) for ref in two_tet_reference]
    assert [repr(tri) for tri in _search_leaves(2)[::16]] == \
           [repr(ref) for ref in two_tet_reference[::16]]


@pytest.mark.parametrize("enforce", (True, False))
def test_build_matches_reference_one_tet(enforce):
    specs = _ref_search(1, T.any_gluing)
    assert len(specs) == 27
    for spec in specs:
        assert _outcome(T.build, spec, enforce) == \
               _outcome(_ref_build, spec, enforce)


def test_build_matches_reference_two_tet(two_tet_reference):
    assert len(two_tet_reference) == 15552
    raised = 0
    for ref in two_tet_reference:
        assert T.build(ref.spec, enforce_link_hypothesis=False) == ref
        try:
            _ref_check_links(ref.boundary_links)
            want = ref
        except BoundaryHypothesisError as exc:
            want = (str(exc), exc.chi_by_class)
            raised += 1
        assert _outcome(T.build, ref.spec, True) == want
    assert 0 < raised < len(two_tet_reference)


@pytest.mark.parametrize("obj", (CENSUS_JSON, TORUS_JSON, MULTI_JSON,
                                 SAMPLED6_JSON, NTET12_JSON),
                         ids=("census", "torus", "multi", "sampled6", "ntet12"))
@pytest.mark.parametrize("enforce", (True, False))
def test_build_matches_reference_frozen(obj, enforce):
    spec = T.GluingSpec.from_json_obj(obj)
    assert _outcome(T.build, spec, enforce) == _outcome(_ref_build, spec, enforce)


def _glue(tet_count, pairs):
    """Spec from ((t, f), (t2, f2), s) face pairs; partners get s inverse."""
    table = [None] * (4 * tet_count)
    for (t, f), (t2, f2), s in pairs:
        table[4 * t + f] = (t2, f2, s)
        table[4 * t2 + f2] = (t, f, T.perm_inverse(s))
    spec = T.GluingSpec(tet_count=tet_count, pairings=tuple(table))
    spec.validate()
    return spec


@pytest.mark.parametrize("tet_count, odd_pairs, face, partner", [
    # one tet: faces 2-3 glued through a transposition
    (1, [((0, 2), (0, 3), (0, 1, 3, 2))], (0, 0), (0, 1)),
    # two tets: faces 0, 1, 2 of tet 0 glued to the same faces of tet 1
    (2, [((0, 0), (1, 0), (0, 1, 3, 2)), ((0, 1), (1, 1), (0, 1, 3, 2)),
         ((0, 2), (1, 2), (1, 0, 2, 3))], (0, 3), (1, 3)),
], ids=("one_tet", "two_tet"))
def test_even_face_map_is_non_orientable(tet_count, odd_pairs, face, partner):
    # Closing the gluing with an odd map keeps it orientable; an even map
    # reverses orientation across that face pair.
    maps = [s for s in permutations(range(4)) if s[face[1]] == partner[1]]
    odd = next(s for s in maps if _ref_perm_sign(s) == -1)
    even = next(s for s in maps if _ref_perm_sign(s) == 1)
    T.build(_glue(tet_count, odd_pairs + [(face, partner, odd)]),
            enforce_link_hypothesis=False)
    with pytest.raises(GluingError, match="non-orientable"):
        T.build(_glue(tet_count, odd_pairs + [(face, partner, even)]),
                enforce_link_hypothesis=False)
