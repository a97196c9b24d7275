"""Gluing validation, derived classes, boundary links, and the search."""

import dataclasses
import gc
import inspect
import pickle
import random
import weakref
from functools import cached_property
from itertools import permutations

import numpy as np
import pytest

from hyperideal import serialize
from hyperideal import triangulation as T
from hyperideal.errors import BoundaryHypothesisError, GluingError

from conftest import (CENSUS_JSON, MULTI_JSON, NTET12_JSON, SAMPLED6_JSON, TORUS_JSON,
                      assert_same_text, spec_json)

PREDICATES = (T.any_gluing, T.single_hyperbolic_class, T.all_torus_links)


# ---------------------------------------------------------------------------
# References: the permutation loops, the 2-colouring of the tetrahedra, the
# tuple-keyed union-find `build` and the unpruned search that the tables and
# the union-find's orientation verdicts replaced.

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


def _ref_check_orientable(spec):
    # Two-colouring of tetrahedra: a pairing with odd permutation preserves a
    # coherent orientation, an even one reverses it.  Any odd cycle of
    # constraints means the quotient is non-orientable.
    n = spec.tet_count
    eps = [0] * n
    for start in range(n):
        if eps[start] != 0:
            continue
        eps[start] = 1
        stack = [start]
        while stack:
            t = stack.pop()
            for f in range(4):
                t2, _f2, s = spec.pairing(t, f)
                want = eps[t] if _ref_perm_sign(s) == -1 else -eps[t]
                if eps[t2] == 0:
                    eps[t2] = want
                    stack.append(t2)
                elif eps[t2] != want:
                    raise GluingError(
                        f"gluing is non-orientable (inconsistent orientation "
                        f"across face ({t},{f}))")


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


@dataclasses.dataclass(frozen=True)
class _Ref:
    """The five fields of a triangulation, as a plain record."""

    spec: T.GluingSpec
    edge_classes: tuple
    vertex_classes: tuple
    boundary_links: tuple
    edge_class_of: tuple

    @property
    def tet_count(self):
        return self.spec.tet_count

    @property
    def n_edges(self):
        return len(self.edge_classes)


def _fields(tri):
    """The five fields of tri, each read (and so derived) in turn; the stored
    edge count must count the edge classes."""
    assert tri.n_edges == len(tri.edge_classes)
    return _Ref(tri.spec, tri.edge_classes, tri.vertex_classes,
                tri.boundary_links, tri.edge_class_of)


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
    _ref_check_orientable(spec)
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
    return _Ref(spec=spec, edge_classes=edge_classes,
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


@pytest.fixture(scope="module")
def sampled_specs(sampler):
    """Benchmark-sampler gluings of 3 to 128 tetrahedra, each followed by an
    orientation variant made with `_switched`, which may be non-orientable."""
    rng = random.Random(20)
    specs = []
    for n in (3, 4, 5, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128):
        for _ in range(3):
            spec = sampler.draw_spec(n, rng)
            specs += [spec, _switched(spec, rng)]
    return specs


def _outcome(build, spec, enforce):
    # The five fields build gives spec, or the message and chi list it raises.
    try:
        return _fields(build(spec, enforce_link_hypothesis=enforce))
    except BoundaryHypothesisError as exc:
        return str(exc), exc.chi_by_class


@pytest.fixture(scope="module")
def two_tet_reference():
    """Every 2-tet gluing the reference search keeps, with the five fields of
    its reference triangulation, in search order (one reference search per
    session)."""
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
    obj = spec_json(census_spec)
    assert obj == CENSUS_JSON
    assert T.GluingSpec.from_json_obj(obj) == census_spec


@pytest.mark.parametrize("mutate, message", [
    (lambda o: o.pop("tet_count"), "tet_count"),
    (lambda o: o.update(tet_count=0), "tet_count"),
    (lambda o: o.update(pairings=o["pairings"][:-1]), "pairings"),
    (lambda o: o["pairings"][0].__setitem__(4, [0, 0, 1, 2]), "permutation"),
    (lambda o: o["pairings"][0].__setitem__(2, 5), "range"),
    # Partner labels and maps reach validate, which names the face.
    (lambda o: o["pairings"][0].__setitem__(2, True),
     r"^face \(0,0\) glued to face \(True,1\), which is not labelled"),
    (lambda o: o["pairings"][5].__setitem__(3, 1.0),
     r"^face \(1,1\) glued to face \(0,1\.0\), which is not labelled"),
    (lambda o: o["pairings"][5].__setitem__(2, 7),
     r"^face \(1,1\) glued to out-of-range face \(7,3\)"),
    (lambda o: o["pairings"][0].__setitem__(4, 5),
     r"^face \(0,0\) carries an invalid permutation 5$"),
    (lambda o: o["pairings"][2].__setitem__(4, [1, 2, 0, True]),
     r"^face \(0,2\) carries an invalid permutation \(1, 2, 0, True\)$"),
    (lambda o: o["pairings"][3].__setitem__(4, [0, 2, 3]),
     r"^face \(0,3\) carries an invalid permutation \(0, 2, 3\)$"),
    (lambda o: o["pairings"][3].__setitem__(4, "0231"),
     r"^face \(0,3\) carries an invalid permutation '0231'$"),
    # What placing a row needs is checked before validate runs.
    (lambda o: o["pairings"][0].__setitem__(0, False), "malformed pairing row"),
    (lambda o: o["pairings"][0].pop(), "malformed pairing row"),
    (lambda o: o["pairings"][7].__setitem__(0, 2),
     r"pairing row for out-of-range face \(2,3\)"),
    (lambda o: o["pairings"].__setitem__(1, list(o["pairings"][0])),
     r"duplicate pairing row for face \(0,0\)"),
])
def test_malformed_json_rejected(mutate, message):
    import copy
    obj = copy.deepcopy(CENSUS_JSON)
    mutate(obj)
    with pytest.raises(GluingError, match=message):
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
    # True passes isinstance(n, int), but no gluing file can carry it:
    # from_json_obj refuses a tet_count that is not an int
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
    assert spec_json(census[0]) == CENSUS_JSON
    torus = T.search_gluings(2, T.all_torus_links)
    assert spec_json(torus[0]) == TORUS_JSON


def test_search_one_tet():
    assert T.search_gluings(1, T.single_hyperbolic_class) == []
    any1 = T.search_gluings(1, T.any_gluing)
    assert len(any1) == 27
    # deterministic order: rerun gives the identical list
    assert T.search_gluings(1, T.any_gluing) == any1


@pytest.mark.parametrize("tet_count", [3, 0, True, 2.0])
def test_search_rejects_large_counts(tet_count):
    # Only the ints 1 and 2: True equals 1 and 2.0 equals 2, but validate
    # refuses a spec of either count, and json_text writes only the specs
    # that validate accepts.
    with pytest.raises(ValueError):
        T.search_gluings(tet_count, T.any_gluing)


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


@pytest.mark.parametrize("indent", [0, 2])
def test_json_text_is_the_generic_rendering(two_tet_reference, sampled_specs,
                                            indent, monkeypatch):
    # A spec's text, read from the table of finished rows, is what the
    # generic renderer makes of its JSON object, when the table is filled
    # by the first rendering and when it is read by the second; and so at a
    # neighbouring indent.  Rows are the same at every indent and frames
    # are kept per indent, so the cases 0 and 2 cover indents 0 to 3.
    monkeypatch.setattr(T, "_ROWS", [])
    monkeypatch.setattr(T, "_FRAMES", {})
    # Specs that validate refuses are refused first, into the empty tables:
    # a row too wide for one line, which no valid gluing has, in every row
    # and in one row of four; a count that is no int, True and 2.0.
    refused = [T.GluingSpec(tet_count=1, pairings=(
        (int("9" * 90), 1, (1, 0, 2, 3)),) * 4)]
    refused.append(T.GluingSpec(tet_count=1, pairings=(
        (int("9" * 90), 1, (1, 0, 2, 3)),) + ((3, 1, (1, 0, 2, 3)),) * 3))
    refused += [T.GluingSpec(n, two_tet_reference[0].spec.pairings)
                for n in (True, 2.0)]
    for spec in refused:
        for at in (indent, indent ^ 1):
            with pytest.raises(ValueError, match="validated specs only"):
                spec.json_text(at)
    specs = T.search_gluings(1, T.any_gluing)
    assert len(specs) == 27
    specs += [tri.spec for tri in two_tet_reference]
    # two- and three-digit tetrahedron labels
    specs += sampled_specs
    # maps given as lists, which validate accepts
    listed = T.GluingSpec(2, tuple(
        (t2, f2, list(s)) for t2, f2, s in two_tet_reference[0].spec.pairings))
    listed.validate()
    specs.append(listed)
    # rows whose target face is not where the permutation sends the face,
    # which validate refuses; rows of int labels on one line are written
    # as they stand
    specs.append(T.GluingSpec(tet_count=1, pairings=(
        (5, 1, (1, 0, 2, 3)),) * 4))
    for spec in specs:
        for at in (indent, indent ^ 1):
            want = serialize._render(spec_json(spec), at)
            assert_same_text(spec.json_text(at), want)
            assert_same_text(spec.json_text(at), want)


def test_json_text_rows_are_kept_only_for_int_labels(monkeypatch):
    # A pairing row written with a float or a bool for a label, which
    # validate refuses, is refused and never enters the table, so it cannot
    # change how a later spec with int labels is written.
    monkeypatch.setattr(T, "_ROWS", [])
    monkeypatch.setattr(T, "_FRAMES", {})
    odd = T.GluingSpec(tet_count=1, pairings=(
        [0, 1.0, [1, 0, 2, 3]], (0, 0, (1, 0, 2, 3)),
        (True, 3, (0, 1, 3, 2)), (0, 2, [0, 1, 3, 2])))
    with pytest.raises(ValueError, match="validated specs only"):
        odd.json_text(7)
    assert T._ROWS == [{}] * 4
    spec = T.GluingSpec(tet_count=1, pairings=(
        (0, 1, (1, 0, 2, 3)), (0, 0, (1, 0, 2, 3)),
        (1, 3, (0, 1, 3, 2)), (0, 2, (0, 1, 3, 2))))
    assert spec.json_text(7) == serialize._render(spec_json(spec), 7)


def _records():
    # A spec and a triangulation of it, each made by its constructor, and
    # the positional and keyword arguments that made it.
    spec = T.GluingSpec.from_json_obj(CENSUS_JSON)
    tri = T.build(spec, enforce_link_hypothesis=False)
    return [(T.GluingSpec, (spec.tet_count, spec.pairings)),
            (T.Triangulation, (spec, tri._edge, tri.n_edges))]


@pytest.mark.parametrize("cls, args", _records(), ids=("spec", "tri"))
def test_records_are_frozen_and_init_fills_the_fields(cls, args):
    # The hand-written __init__ takes the fields in order, by position or by
    # name, and stores exactly them; assignment and deletion are refused,
    # and replace and a pickle round trip give equal records.
    names = [f.name for f in dataclasses.fields(cls)]
    assert list(inspect.signature(cls).parameters) == names
    obj = cls(*args)
    assert list(vars(obj).items()) == list(zip(names, args))
    by_name = cls(**dict(zip(names, args)))
    assert by_name == obj and hash(by_name) == hash(obj)
    assert vars(by_name) == vars(obj)
    for name in (*names, "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert list(vars(obj)) == names
    for copy in (dataclasses.replace(obj), pickle.loads(pickle.dumps(obj))):
        assert type(copy) is cls and copy == obj and hash(copy) == hash(obj)
        assert vars(copy) == vars(obj)
    changed = dataclasses.replace(obj, **{names[-1]: 7})
    assert vars(changed) == {**vars(obj), names[-1]: 7}


def _search_leaves(tet_count):
    # Every triangulation the search hands its predicate, in order.
    leaves = []
    T.search_gluings(tet_count, lambda tri: leaves.append(tri) or True)
    return leaves


@pytest.mark.parametrize("tet_count, calls, leaves",
                         [(1, 9, 27), (2, 6063, 15552)])
def test_search_glue_is_never_refused(monkeypatch, tet_count, calls, leaves):
    # Where t and t2 share a root, the search tries only the three maps of
    # the sign that keeps an orientation, so no glue is refused.  The last
    # pairing is not glued but united on the leaf's copy, and only where it
    # connects the gluing: the predicate sees every connected leaf and no
    # disconnected completion is made (729 of them at n = 2).
    verdicts = []
    glue = T._Quotients.glue

    def counted(self, *args):
        verdicts.append(glue(self, *args))
        return verdicts[-1]

    monkeypatch.setattr(T._Quotients, "glue", counted)
    seen = []
    T.search_gluings(tet_count, lambda tri: seen.append(tri) or True)
    assert (len(verdicts), all(verdicts), len(seen)) == (calls, True, leaves)


class _Sealed(list):
    # A list that refuses to be written; a slice of it is a plain list.
    def __setitem__(self, *args):
        raise AssertionError("a sealed list was written")


@pytest.mark.parametrize("tet_count", [1, 2])
def test_search_leaves_its_quotients_as_found(monkeypatch, tet_count):
    # Each pairing is glued into a copy of its parent's union-find and the
    # last one united on the leaf's copy of the edge list: the state the
    # search starts from, whose lists refuse every write, is never written.
    made = []

    class Recorded(T._Quotients):
        def __init__(self, n):
            super().__init__(n)
            self.tet, self.edge, self.parity = map(
                _Sealed, (self.tet, self.edge, self.parity))
            made.append(self)

    monkeypatch.setattr(T, "_Quotients", Recorded)
    found = T.search_gluings(tet_count, T.any_gluing)
    [quotients] = made
    n = tet_count
    assert len(found) == (27, 15552)[n - 1]
    assert (quotients.tet, quotients.edge, quotients.parity) == \
           (list(range(n)), list(range(6 * n)), [0] * n)
    assert (quotients.tet_roots, quotients.edge_roots) == (n, 6 * n)


def _glue_walked(quotients, t, f, t2, s):
    # quotients.glue with the roots walked first, as build walks them.
    (a, odd), (b, odd2) = quotients.root(t), quotients.root(t2)
    return quotients.glue(t, f, t2, s, (a, b, odd ^ odd2))


def _recount(quotients):
    return (sum(quotients.tet[x] == x for x in range(len(quotients.tet))),
            sum(quotients.edge[x] == x for x in range(len(quotients.edge))))


def _state(quotients):
    return (quotients.tet[:], quotients.parity[:], quotients.edge[:],
            quotients.tet_roots, quotients.edge_roots)


def test_root_counters_match_a_recount(sampler):
    # Seeded runs of glues at n = 3..12, some pairings refused as
    # non-orientable, each into a copy of the state before it, and now and
    # then from an earlier state, as a search backtracks: every copy's
    # counters equal a walk of its parent lists, a refused glue leaves its
    # copy equal to the state it was copied from, and no state changes once
    # copied.
    rng = random.Random(21)
    refused = returned = 0
    for n in range(3, 13):
        for _ in range(4):
            spec = _switched(sampler.draw_spec(n, rng), rng)
            pairs = [(i >> 2, i & 3, t2, s)
                     for i, (t2, _f2, s) in enumerate(spec.pairings)
                     if 4 * t2 + _f2 > i]
            rng.shuffle(pairs)
            quotients = T._Quotients(n)
            assert (quotients.tet_roots, quotients.edge_roots) == (n, 6 * n)
            states = [(quotients, _state(quotients))]
            for pair in pairs:
                glued = quotients.copy()
                if not _glue_walked(glued, *pair):
                    refused += 1
                    assert _state(glued) == _state(quotients)
                assert (glued.tet_roots, glued.edge_roots) == _recount(glued)
                states.append((glued, _state(glued)))
                quotients = glued
                if rng.random() < 0.2:
                    quotients = rng.choice(states)[0]
                    returned += 1
            assert all(_state(q) == state for q, state in states)
    assert refused > 0 and returned > 0


def test_search_leaves_match_build(two_tet_reference):
    # Leaves are read off the search's live union-find, not made by build.
    assert [_fields(tri) for tri in _search_leaves(2)] == two_tet_reference
    leaves = _search_leaves(1)
    assert len(leaves) == 27
    assert [_fields(tri) for tri in leaves] == \
           [_fields(T.build(tri.spec, enforce_link_hypothesis=False))
            for tri in leaves]


_DERIVED = ("edge_classes", "edge_class_of", "vertex_classes",
            "boundary_links")


@pytest.fixture
def derivations(monkeypatch):
    """Per derivation, the spec of every triangulation it runs for, in
    order: the property body of each derived field, and "vert" for the
    vertex union pass that `vertex_classes` and `boundary_links` each run."""
    calls = {}
    for name in _DERIVED:
        def counted(tri, derive=T.Triangulation.__dict__[name].func,
                    specs=calls.setdefault(name, [])):
            specs.append(tri.spec)
            return derive(tri)

        prop = cached_property(counted)
        prop.__set_name__(T.Triangulation, name)
        monkeypatch.setattr(T.Triangulation, name, prop)

    def counted_vert(spec, derive=T._vertex_parents,
                     specs=calls.setdefault("vert", [])):
        specs.append(spec)
        return derive(spec)

    monkeypatch.setattr(T, "_vertex_parents", counted_vert)
    return calls


def _counts(derivations):
    return tuple(len(derivations[g]) for g in (*_DERIVED, "vert"))


def test_search_any_derives_no_leaf(derivations):
    assert len(T.search_gluings(2, T.any_gluing)) == 15552
    assert _counts(derivations) == (0, 0, 0, 0, 0)


def test_census_search_derives_nothing(derivations):
    # The census filter reads the edge and tetrahedron counts alone.
    assert len(T.search_gluings(2, T.single_hyperbolic_class)) == 4416
    assert _counts(derivations) == (0, 0, 0, 0, 0)


def test_build_derives_once(derivations, census_spec):
    tri = T.build(census_spec)  # reads the links to check the hypothesis
    assert _counts(derivations) == (0, 0, 0, 1, 1)
    assert (tri.n_edges, tri.edge_class_of) == (1, ((0,) * 6, (0,) * 6))
    assert _counts(derivations) == (0, 1, 0, 1, 1)
    assert tri.vertex_classes  # a vertex union pass of its own
    assert _counts(derivations) == (0, 1, 1, 1, 2)
    assert tri.edge_classes and tri.vertex_classes and tri.boundary_links
    assert _counts(derivations) == (1, 1, 1, 1, 2)
    lax = T.build(census_spec, enforce_link_hypothesis=False)
    assert lax == tri  # reads the specs alone
    assert _counts(derivations) == (1, 1, 1, 1, 2)
    assert _fields(lax) == _fields(tri)
    assert _counts(derivations) == (2, 2, 2, 2, 4)
    assert {spec for specs in derivations.values() for spec in specs} == \
           {census_spec}


def test_leaf_n_edges_derives_nothing(two_tet_reference, derivations):
    counts = []
    T.search_gluings(2, lambda tri: counts.append(tri.n_edges) or True)
    assert _counts(derivations) == (0, 0, 0, 0, 0)
    assert counts == [len(ref.edge_classes) for ref in two_tet_reference]


def test_leaf_derived_after_the_search(derivations):
    # A leaf keeps its own copy of the edge parent list, which the search
    # never writes after the predicate returns: a leaf derived then has the
    # fields of one derived in the predicate.
    early = []
    T.search_gluings(2, lambda tri: early.append(_fields(tri)) or True)
    once = (15552, 15552, 15552, 15552, 2 * 15552)
    assert _counts(derivations) == once
    late = _search_leaves(2)
    assert _counts(derivations) == once
    assert [_fields(tri) for tri in late] == early
    assert _counts(derivations) == tuple(2 * n for n in once)


def test_link_identities_hold_on_the_reference(two_tet_reference,
                                               sampled_specs, sampler):
    # What counting link corners by edge-class ends and the census filter
    # rest on, checked on the reference's corner-point union: every edge
    # class has two distinct ends, so the corners sum to 2 E, and the links'
    # chi to 2 (E - n), as the links have 6n sides and 4n triangles in all.
    # One edge class leaves one vertex class, so the census filter reads
    # the counts alone.
    refs = [_ref_build(spec, enforce_link_hypothesis=False)
            for spec in _ref_search(1, T.any_gluing)]
    assert len(refs) == 27
    refs += two_tet_reference
    refs += [_ref_build(spec, enforce_link_hypothesis=False)
             for spec in sampled_specs
             if _orientable(_ref_check_orientable, spec)]
    rng = random.Random(22)
    refs += [_ref_build(sampler.sample(n, rng, one_edge=True)[0].spec,
                        enforce_link_hypothesis=False) for n in range(3, 129)]
    one_edge = 0
    for ref in refs:
        n_edges, links = len(ref.edge_classes), ref.boundary_links
        assert sum(l.corners for l in links) == 2 * n_edges, ref.spec
        assert sum(l.chi for l in links) == 2 * (n_edges - ref.tet_count)
        if n_edges == 1:
            assert len(ref.vertex_classes) == 1, ref.spec
            one_edge += 1
        assert T.single_hyperbolic_class(ref) == \
               (n_edges == 1 and all(l.chi < 0 for l in links)), ref.spec
    # none of the one-tet gluings, the 4416 of the 2-tet census, 3 of the
    # sampled specs and the 126 one-edge draws
    assert one_edge == 4416 + 3 + 126


def test_search_result_freed_by_refcount():
    # The search leaves no reference cycle behind: with the garbage
    # collector off, a returned spec dies with the last reference to the
    # result.
    enabled = gc.isenabled()
    gc.disable()
    try:
        found = T.search_gluings(2, T.any_gluing)
        spec = weakref.ref(found[0])
        del found
        assert spec() is None
    finally:
        if enabled:
            gc.enable()


def test_leaf_eq_hash_and_repr_derive_nothing(derivations):
    # Equality, hash and repr read only the stored fields, and every field
    # is a function of the spec: a leaf equals the triangulation build
    # makes of its spec, and no field can be assigned.
    leaves = _search_leaves(2)
    built = [T.build(tri.spec, enforce_link_hypothesis=False) for tri in leaves]
    assert leaves == built
    assert [hash(tri) for tri in leaves] == [hash(tri) for tri in built]
    assert len(set(leaves)) == len(leaves)
    assert [repr(tri) for tri in leaves[::16]] == \
           [f"Triangulation(spec={tri.spec!r}, n_edges={tri.n_edges})"
            for tri in built[::16]]
    assert _counts(derivations) == (0, 0, 0, 0, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        leaves[0].n_edges = 2


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
        assert _fields(T.build(ref.spec, enforce_link_hypothesis=False)) == ref
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


@pytest.mark.parametrize("enforce", (True, False))
def test_build_matches_reference_sampled(sampled_specs, enforce):
    # Edge classes come from the union-find that glued the tetrahedra,
    # vertex classes and links from a second pass over the pairing table:
    # both agree with the reference far beyond two tetrahedra.
    refused = kept = 0
    for spec in sampled_specs:
        if not _orientable(_ref_check_orientable, spec):
            with pytest.raises(GluingError, match="non-orientable"):
                T.build(spec, enforce_link_hypothesis=enforce)
            continue
        want = _outcome(_ref_build, spec, enforce)
        assert _outcome(T.build, spec, enforce) == want, spec
        refused += isinstance(want, tuple)
        kept += not isinstance(want, tuple)
    assert kept > 0
    assert (refused > 0) == enforce


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


def _map(f, f2, sign):
    """First permutation of the given sign that sends face f to face f2."""
    return next(s for s in permutations(range(4))
                if s[f] == f2 and _ref_perm_sign(s) == sign)


def _switched(spec, rng):
    """spec with the pairings across a random cut of its tetrahedra switched
    to even maps, then each pairing toggled between an odd and an even map
    with probability one in the number of pairings; still involutive."""
    n = spec.tet_count
    flipped = [rng.random() < 0.5 for _ in range(n)]
    table = list(spec.pairings)
    for i, (t2, f2, s) in enumerate(spec.pairings):
        t, f = divmod(i, 4)
        if 4 * t2 + f2 < i:
            continue
        even = (flipped[t] != flipped[t2]) != (rng.random() < 0.5 / n)
        s = _map(f, f2, 1 if even else -1)
        table[i] = (t2, f2, s)
        table[4 * t2 + f2] = (t, f, _ref_perm_inverse(s))
    switched = T.GluingSpec(tet_count=n, pairings=tuple(table))
    switched.validate()
    return switched


def _orientable(check, spec):
    try:
        check(spec)
    except GluingError as exc:
        assert "non-orientable" in str(exc)
        return False
    return True


def test_orientability_matches_reference_beyond_two_tets(sampler):
    # Even maps across a cut keep the gluing orientable with tetrahedra of
    # both orientations; one more toggled pairing closes an odd cycle.
    rng = random.Random(18)
    verdicts = []
    for n in range(3, 13):
        for _ in range(30):
            spec = _switched(sampler.draw_spec(n, rng), rng)
            want = _orientable(_ref_check_orientable, spec)
            assert _orientable(
                lambda s: T.build(s, enforce_link_hypothesis=False),
                spec) == want, spec
            verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("sign", (1, -1), ids=("even", "odd"))
def test_three_tets_orientation_set_late(sign):
    # Tetrahedron 1 meets only tetrahedron 2, which tetrahedron 0 reaches
    # first: no lower tetrahedron reaches tetrahedron 1 before its own faces
    # are placed.  The gluing is orientable with it in either orientation.
    spec = _glue(3, [((0, 0), (0, 1), _map(0, 1, -1)),
                     ((0, 2), (2, 0), _map(2, 0, -1)),
                     ((0, 3), (2, 1), _map(3, 1, -1)),
                     ((1, 0), (2, 2), _map(0, 2, sign)),
                     ((1, 1), (2, 3), _map(1, 3, sign)),
                     ((1, 2), (1, 3), _map(2, 3, -1))])
    _ref_check_orientable(spec)
    tri = T.build(spec, enforce_link_hypothesis=False)
    ref = _ref_build(spec, enforce_link_hypothesis=False)
    assert (tri.vertex_classes, tri.boundary_links) == \
           (ref.vertex_classes, ref.boundary_links)
    quotients = T._Quotients(3)
    for i, (t2, f2, s) in enumerate(spec.pairings):
        if 4 * t2 + f2 > i:
            assert _glue_walked(quotients, i // 4, i % 4, t2, s)
    assert [quotients.tet[x] == x for x in range(3)].count(True) == 1
    # Across any face, the map of the other sign would close an odd cycle:
    # it is refused and glues nothing.
    state = _state(quotients)
    for i, (t2, f2, s) in enumerate(spec.pairings):
        t, f = divmod(i, 4)
        other = _map(f, f2, -_ref_perm_sign(s))
        assert not _glue_walked(quotients, t, f, t2, other)
    assert _state(quotients) == state
