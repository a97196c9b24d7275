"""Combinatorics of ideal triangulations of compact 3-manifolds with boundary.

A gluing is a finite set of tetrahedra, labelled 0..N-1, whose 4N faces are
identified in pairs by simplicial maps.  Local labelling conventions used by
every file format and error message in this package:

* vertices of a tetrahedron are 0..3;
* face f (0..3) is the face opposite vertex f, carrying the other three
  vertices;
* edges 0..5 enumerate the vertex pairs in lexicographic order
  01, 02, 03, 12, 13, 23, so opposite edge pairs are (0,5), (1,4), (2,3).

A face pairing sends (tet t, face f) to (t', f') through a permutation s of
{0,1,2,3} with s(f) = f'; it carries edge {a, b} of face f to edge
{s(a), s(b)}.  Truncating a neighbourhood of every vertex and taking the
quotient yields a compact 3-manifold whose boundary is triangulated by the
corner triangles of the tetrahedra, one boundary component per vertex class.
The geometric modules require every boundary component to have negative
Euler characteristic; `build` enforces that hypothesis unless asked not to.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .errors import BoundaryHypothesisError, GluingError

EDGE_VERTEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
OPPOSITE_EDGE = (5, 4, 3, 2, 1, 0)
VERTEX_EDGES = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))

_EDGE_INDEX = {}
for _e, (_a, _b) in enumerate(EDGE_VERTEX_PAIRS):
    _EDGE_INDEX[(_a, _b)] = _e
    _EDGE_INDEX[(_b, _a)] = _e

_PERMS4 = tuple(permutations(range(4)))


# Sign by the parity of the inversion count.
_SIGN = {s: (-1) ** sum(s[i] > s[j] for i in range(4) for j in range(i + 1, 4))
         for s in _PERMS4}
_INVERSE = {s: tuple(s.index(i) for i in range(4)) for s in _PERMS4}


def edge_index(a: int, b: int) -> int:
    """Local edge index of the vertex pair {a, b}."""
    return _EDGE_INDEX[(a, b)]


def perm_inverse(s):
    """Inverse of a permutation s of {0,1,2,3}, as a tuple."""
    return _INVERSE[tuple(s)]


def perm_sign(s) -> int:
    """+1 for even permutations of {0,1,2,3}, -1 for odd."""
    return _SIGN[tuple(s)]


def _face_map(f, s):
    # What the pairing of face f through s identifies: local edge pairs,
    # vertex pairs and corner-point pairs (4v + w is the point of the corner
    # triangle at vertex v that lies on edge {v, w}).
    others = [v for v in range(4) if v != f]
    edges = tuple((edge_index(a, b), edge_index(s[a], s[b]))
                  for i, a in enumerate(others) for b in others[i + 1:])
    verts = tuple((a, s[a]) for a in others)
    points = tuple((4 * a + b, 4 * s[a] + s[b])
                   for a in others for b in others if b != a)
    return edges, verts, points


_FACE_MAPS = {(f, s): _face_map(f, s) for f in range(4) for s in _PERMS4}
_POINT_SLOTS = tuple(4 * v + w for v in range(4) for w in range(4) if v != w)


@dataclass(frozen=True)
class GluingSpec:
    """Raw face-pairing data: entry 4*t + f is (t', f', s) for face (t, f)."""

    tet_count: int
    pairings: tuple

    def pairing(self, t: int, f: int):
        return self.pairings[4 * t + f]

    def validate(self) -> None:
        """Check structural sanity; raises GluingError with a located message."""
        n = self.tet_count
        if type(n) is not int or n < 1:
            raise GluingError(f"tet_count must be a positive integer, got {n!r}")
        if not isinstance(self.pairings, (tuple, list)):
            raise GluingError("pairings must be a tuple or list, got "
                              f"{type(self.pairings).__name__}")
        if len(self.pairings) != 4 * n:
            raise GluingError(
                f"expected {4 * n} face pairings, got {len(self.pairings)}")
        # Shapes and types of every entry first, so that the checks of how
        # entries relate below may index and unpack any of them.
        for i, entry in enumerate(self.pairings):
            t, f = divmod(i, 4)
            try:
                t2, f2, s = entry
            except (TypeError, ValueError):
                raise GluingError(f"malformed pairing entry for face ({t},{f})")
            if type(t2) is not int or type(f2) is not int:
                raise GluingError(
                    f"face ({t},{f}) glued to face ({t2!r},{f2!r}), which is "
                    "not labelled by integers")
            if not (0 <= t2 < n and 0 <= f2 < 4):
                raise GluingError(
                    f"face ({t},{f}) glued to out-of-range face ({t2},{f2})")
            if (type(s) not in (tuple, list) or len(s) != 4
                    or any(type(v) is not int for v in s)
                    or tuple(sorted(s)) != (0, 1, 2, 3)):
                raise GluingError(
                    f"face ({t},{f}) carries an invalid permutation {s!r}")
        for i, (t2, f2, s) in enumerate(self.pairings):
            t, f = divmod(i, 4)
            if s[f] != f2:
                raise GluingError(
                    f"permutation of face ({t},{f}) sends {f} to {s[f]}, "
                    f"not to the target face {f2}")
            if (t2, f2) == (t, f):
                raise GluingError(
                    f"face ({t},{f}) is glued to itself; the induced "
                    "involution fixes a corner and the quotient is not a "
                    "manifold")
            bt, bf, bs = self.pairings[4 * t2 + f2]
            if (bt, bf) != (t, f) or tuple(bs) != perm_inverse(s):
                raise GluingError(
                    f"pairing is not involutive at face ({t},{f}): the "
                    f"back map from ({t2},{f2}) does not invert it")

    def to_json_obj(self) -> dict:
        out = []
        for t in range(self.tet_count):
            for f in range(4):
                t2, f2, s = self.pairings[4 * t + f]
                out.append([t, f, t2, f2, list(s)])
        return {"tet_count": self.tet_count, "pairings": out}

    @classmethod
    def from_json_obj(cls, obj) -> "GluingSpec":
        if not isinstance(obj, dict):
            raise GluingError("gluing JSON must be an object")
        n = obj.get("tet_count")
        rows = obj.get("pairings")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise GluingError("tet_count must be a positive integer")
        if not isinstance(rows, list) or len(rows) != 4 * n:
            raise GluingError(f"pairings must list exactly {4 * n} entries")
        table = [None] * (4 * n)
        for row in rows:
            if (not isinstance(row, list) or len(row) != 5
                    or not all(isinstance(v, int) and not isinstance(v, bool)
                               for v in row[:4])
                    or not isinstance(row[4], list) or len(row[4]) != 4
                    or not all(isinstance(v, int) and not isinstance(v, bool)
                               for v in row[4])):
                raise GluingError(f"malformed pairing row {row!r}")
            t, f, t2, f2, s = row
            if not (0 <= t < n and 0 <= f < 4):
                raise GluingError(f"pairing row for out-of-range face ({t},{f})")
            if table[4 * t + f] is not None:
                raise GluingError(f"duplicate pairing row for face ({t},{f})")
            table[4 * t + f] = (t2, f2, tuple(s))
        for i, entry in enumerate(table):
            if entry is None:
                raise GluingError(f"face ({i // 4},{i % 4}) has no pairing row")
        spec = cls(tet_count=n, pairings=tuple(table))
        spec.validate()
        return spec


@dataclass(frozen=True)
class EdgeClass:
    """An edge of the quotient manifold: an orbit of (tet, local edge) corners."""

    index: int
    corners: tuple

    @property
    def valence(self) -> int:
        return len(self.corners)


@dataclass(frozen=True)
class BoundaryLink:
    """Census data of one boundary component (the link of a vertex class)."""

    vertex_class: int
    chi: int
    triangles: int
    sides: int
    corners: int


_DERIVED = ("edge_classes", "vertex_classes", "boundary_links", "edge_class_of")


@dataclass(frozen=True)
class Triangulation:
    """A validated gluing together with its derived combinatorics.

    edge_class_of[t][e] is the index of the edge class containing local edge
    e of tetrahedron t; this is the quotient map every metric quantity is
    scattered through.

    `build` and `search_gluings` hand out a triangulation that holds its spec
    and a snapshot of the union-find parent lists of its gluing; the first
    read of any of the four class fields derives all four from it, so a
    search predicate that reads only `n_edges` derives nothing.
    """

    spec: GluingSpec
    edge_classes: tuple
    vertex_classes: tuple
    boundary_links: tuple
    edge_class_of: tuple

    def __getattr__(self, name):
        # Reached only for an attribute not yet set on the instance.
        if name not in _DERIVED:
            raise AttributeError(
                f"'Triangulation' object has no attribute {name!r}")
        self.__dict__.update(zip(_DERIVED, _assemble(self.spec, *self._parents)))
        return self.__dict__[name]

    @property
    def tet_count(self) -> int:
        return self.spec.tet_count

    @property
    def n_edges(self) -> int:
        if "edge_classes" in self.__dict__:
            return len(self.edge_classes)
        edge = self._parents[0]
        return sum(edge[x] == x for x in range(len(edge)))


class _Quotients:
    """Union-find over local edges 6t+e, vertices 4t+v and corner points
    16t+4v+w of n tetrahedra (slots with v == w stay unused singletons),
    with an undo log.

    A union links the larger root under the smaller, so every link points to
    a smaller item and each root is the least member of its orbit.  Paths
    are never compressed: a union changes exactly one entry, which `undo`
    resets.  The log lists each change as two items, the parent list and
    the index: a tuple per change would be one more object for the garbage
    collector to track, which slows large builds.
    """

    def __init__(self, n: int):
        self.edge, self.vert, self.point = (list(range(k * n)) for k in (6, 4, 16))
        self.log = []

    def glue(self, t: int, f: int, t2: int, s: tuple) -> None:
        """Identify what the pairing of face (t, f) into tetrahedron t2
        through s identifies."""
        log = self.log
        for parent, k, pairs in zip((self.edge, self.vert, self.point),
                                    (6, 4, 16), _FACE_MAPS[(f, s)]):
            for a, b in pairs:
                a += k * t
                b += k * t2
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if b < a:
                    a, b = b, a
                if a < b:
                    parent[b] = a
                    log.append(parent)
                    log.append(b)

    def undo(self, mark: int) -> None:
        """Roll back every union made since len(self.log) was mark."""
        log = self.log
        while len(log) > mark:
            x = log.pop()
            log.pop()[x] = x


def _orbits(parent):
    """Sorted orbits in order of least member, and each item's orbit index."""
    orbits, of = [], []
    for x, p in enumerate(parent):
        if p == x:
            of.append(len(orbits))
            orbits.append([x])
        else:
            of.append(of[p])
            orbits[of[p]].append(x)
    return orbits, of


def _check_orientable(spec: GluingSpec) -> None:
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
                want = eps[t] if perm_sign(s) == -1 else -eps[t]
                if eps[t2] == 0:
                    eps[t2] = want
                    stack.append(t2)
                elif eps[t2] != want:
                    raise GluingError(
                        f"gluing is non-orientable (inconsistent orientation "
                        f"across face ({t},{f}))")


def build(spec: GluingSpec, *, enforce_link_hypothesis: bool = True) -> Triangulation:
    """Validate a gluing and derive its edge/vertex classes and boundary links.

    Checks the pairing table and orientability and glues each face pairing
    once into a `_Quotients` union-find; the classes and links are read off
    its orbits when first asked for (see `Triangulation`).  With
    enforce_link_hypothesis (the default), reads the links at once and raises
    BoundaryHypothesisError unless every boundary link has Euler
    characteristic < 0, the standing hypothesis of the geometric modules.
    Search predicates and purely combinatorial diagnostics may disable it.
    """
    spec.validate()
    _check_orientable(spec)
    quotients = _Quotients(spec.tet_count)
    for i, (t2, f2, s) in enumerate(spec.pairings):
        if 4 * t2 + f2 > i:  # the partner face carries the same pairing
            quotients.glue(i // 4, i % 4, t2, tuple(s))
    tri = _leaf(spec, quotients)
    if enforce_link_hypothesis:
        links = tri.boundary_links
        bad = [l for l in links if l.chi >= 0]
        if bad:
            raise BoundaryHypothesisError(
                "boundary link(s) "
                + ", ".join(f"{l.vertex_class} (chi = {l.chi})" for l in bad)
                + " violate the negative Euler characteristic hypothesis",
                chi_by_class=[l.chi for l in links])
    return tri


def _leaf(spec: GluingSpec, quotients: _Quotients) -> Triangulation:
    # The underived triangulation of spec, whose every face pairing quotients
    # holds.  It copies the parent lists, which a search goes on to undo.
    tri = object.__new__(Triangulation)
    tri.__dict__.update(spec=spec, _parents=(
        quotients.edge[:], quotients.vert[:], quotients.point[:]))
    return tri


def _assemble(spec: GluingSpec, edge: list, vert: list, point: list) -> tuple:
    # edge_classes, vertex_classes, boundary_links and edge_class_of of spec,
    # from the parent lists of a _Quotients that holds its every pairing.
    n = spec.tet_count
    edge_orbits, edge_of = _orbits(edge)
    edge_classes = tuple(
        EdgeClass(index=i, corners=tuple(divmod(x, 6) for x in g))
        for i, g in enumerate(edge_orbits))
    vert_orbits, vert_of = _orbits(vert)
    vertex_classes = tuple(tuple(divmod(x, 4) for x in g) for g in vert_orbits)

    # Each point orbit lies over one vertex class; count the orbits by root.
    points = [0] * len(vertex_classes)
    for t in range(n):
        for p in _POINT_SLOTS:
            x = 16 * t + p
            if point[x] == x:
                points[vert_of[x // 4]] += 1

    links = []
    for j, vc in enumerate(vertex_classes):
        faces = len(vc)
        sides = 3 * faces // 2
        links.append(BoundaryLink(vertex_class=j, chi=points[j] - sides + faces,
                                  triangles=faces, sides=sides, corners=points[j]))
    return (edge_classes, vertex_classes, tuple(links),
            tuple(tuple(edge_of[6 * t:6 * t + 6]) for t in range(n)))


def single_hyperbolic_class(tri: Triangulation) -> bool:
    """One edge class and every boundary link of negative Euler characteristic."""
    return (tri.n_edges == 1
            and all(l.chi < 0 for l in tri.boundary_links))


def any_gluing(tri: Triangulation) -> bool:
    return True


def all_torus_links(tri: Triangulation) -> bool:
    return all(l.chi == 0 for l in tri.boundary_links)


def search_gluings(tet_count: int, predicate) -> list:
    """Exhaustively enumerate closed orientable gluings of 1 or 2 tetrahedra.

    Faces are paired in lexicographic order (the lowest unpaired face is
    matched against every strictly later face under the six compatible
    permutations in a fixed order, each with its inverse written at the
    partner), so the result list is deterministic and order-stable.
    Gluings whose tetrahedra
    split into independent components describe disjoint unions rather than a
    single manifold and are skipped.  Orientation is pruned during the
    enumeration: each placed pairing fixes or checks the orientation of the
    tetrahedra it joins, so only permutations that keep the gluing orientable
    are tried.  A `_Quotients` union-find glues each pairing as it is placed
    and undoes it on backtrack.  Every complete gluing hands predicate a
    `Triangulation` holding a copy of the union-find's parent lists, which
    derives its classes from that copy only when first read: it equals what
    `build(spec, enforce_link_hypothesis=False)` returns, without
    re-checking what the enumeration guarantees, and stays valid after the
    search has undone its unions.  A gluing is kept iff predicate(tri)
    holds.
    """
    if tet_count not in (1, 2):
        raise ValueError("search supports 1 or 2 tetrahedra")
    n_faces = 4 * tet_count
    table = [None] * n_faces  # entry 4*t + f, as in GluingSpec.pairings
    # Orientation of each tetrahedron, 0 while unset; a pairing through s
    # forces eps[t2] = -perm_sign(s) * eps[t] (the rule of _check_orientable).
    eps = [1] + [0] * (tet_count - 1)
    quotients = _Quotients(tet_count)
    found = []

    def connected() -> bool:
        seen = {0}
        queue = [0]
        while queue:
            t = queue.pop()
            for f in range(4):
                t2 = table[4 * t + f][0]
                if t2 not in seen:
                    seen.add(t2)
                    queue.append(t2)
        return len(seen) == tet_count

    def place(i):
        while i < n_faces and table[i] is not None:
            i += 1
        if i == n_faces:
            if not connected():
                return
            spec = GluingSpec(tet_count=tet_count, pairings=tuple(table))
            if predicate(_leaf(spec, quotients)):
                found.append(spec)
            return
        t, f = divmod(i, 4)
        fresh = eps[t] == 0
        if fresh:
            eps[t] = 1  # a tetrahedron no placed pairing reaches yet
        mark = len(quotients.log)
        for j in range(i + 1, n_faces):
            if table[j] is not None:
                continue
            t2, f2 = divmod(j, 4)
            free = eps[t2] == 0
            for s in _PERMS4:
                if s[f] != f2:
                    continue
                want = -_SIGN[s] * eps[t]
                if free:
                    eps[t2] = want
                elif eps[t2] != want:
                    continue
                table[i] = (t2, f2, s)
                table[j] = (t, f, _INVERSE[s])
                quotients.glue(t, f, t2, s)
                place(i + 1)
                quotients.undo(mark)
            table[i] = table[j] = None
            if free:
                eps[t2] = 0
        if fresh:
            eps[t] = 0

    place(0)
    return found
