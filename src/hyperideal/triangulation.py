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

Only orientable gluings are accepted, and none of them glues an edge class to
itself reversed: the edge's midpoint would have an RP^2 link, putting a Moebius
band x interval inside the oriented union of open cells.  So a link's corners
are the ends of edge classes in its vertex class, two per edge class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import permutations
from operator import getitem

from .errors import BoundaryHypothesisError, GluingError
from .serialize import _layout, _render, _wrapped

EDGE_VERTEX_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
OPPOSITE_EDGE = (5, 4, 3, 2, 1, 0)
VERTEX_EDGES = ((0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5))

_EDGE_INDEX = {p: e for e, (a, b) in enumerate(EDGE_VERTEX_PAIRS)
               for p in ((a, b), (b, a))}

_PERMS4 = tuple(permutations(range(4)))


# Sign by the parity of the inversion count.
_SIGN = {s: (-1) ** sum(s[i] > s[j] for i in range(4) for j in range(i + 1, 4))
         for s in _PERMS4}
_INVERSE = {s: tuple(s.index(i) for i in range(4)) for s in _PERMS4}
# Finished text.  Under an indent, the pairing rows: a list of tables, one
# by face index 4t + f, each keyed by the pairing (t2, f2, s) and filled on
# first use, one entry per distinct row written.  Under (indent, tet_count),
# a gluing's frame: the text before its first row, between two rows and
# after its last, and that indent's tables, at least 4 * tet_count of them.
_ROWS = {}


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
    # The local edge pairs and vertex pairs that face f through s identifies.
    others = [v for v in range(4) if v != f]
    edges = tuple((edge_index(a, b), edge_index(s[a], s[b]))
                  for i, a in enumerate(others) for b in others[i + 1:])
    return edges, tuple((a, s[a]) for a in others)


_FACE_MAPS = {(f, s): _face_map(f, s) for f in range(4) for s in _PERMS4}


def _row_text(table, i, pairing, indent):
    # The text of row i, for pairing, of a gluing's pairings at this indent:
    # the rendering of [t, f, t2, f2, list(s)], kept in table if all its
    # labels are ints (so that no 1.0 or True fills a row for 1).
    t2, f2, s = pairing
    key = (t2, f2, tuple(s))
    text = table.get(key)
    if text is None:
        text = _render([i >> 2, i & 3, t2, f2, list(s)], indent + 2)
        if all(type(v) is int for v in (t2, f2, *s)):
            table[key] = text
    return text


def _row_tables(indent, count):
    # The row tables of this indent, at least count of them.
    tables = _ROWS.setdefault(indent, [])
    while len(tables) < count:
        tables.append({})
    return tables


def _frame(indent, n):
    # The frame of a gluing of n tetrahedra at this indent, as _ROWS keeps it.
    pad = "  " * (indent + 1)
    start, sep, end = _wrapped(indent + 1)
    head = f'{{\n{pad}"tet_count": {n},\n{pad}"pairings": {start}'
    return head, sep, f'{end}\n{"  " * indent}}}', _row_tables(indent, 4 * n)


@dataclass(frozen=True)
class GluingSpec:
    """Raw face-pairing data: entry 4*t + f is (t', f', s) for face (t, f).

    Its one `__init__` stores the fields straight into the instance dict,
    where the generated one makes an `object.__setattr__` call per field;
    the record is frozen after, and equality, hash and repr are generated
    from the fields."""

    tet_count: int
    pairings: tuple

    def __init__(self, tet_count: int, pairings: tuple):
        d = self.__dict__
        d["tet_count"] = tet_count
        d["pairings"] = pairings

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

    def json_text(self, indent: int) -> str:
        """The text serialize.dumps gives {"tet_count": n, "pairings": rows}
        at this indent, rows listing [t, f, t2, f2, list(s)] for each face
        (t, f) in order; every gluing file is written by it.  An int
        tet_count is written as `str` writes it, any other as `_render`
        does.  Each row is read from a table of finished rows, which
        `_row_text` fills on first use with the generic rendering, under
        `serialize._layout`, the one width rule.

        A spec of an int n >= 1 with 4n rows, every one of them tabled, is
        its frame's head, its rows joined by the frame's separator in one
        call, and the frame's tail; the frame is made once per indent and
        n.  The frame is `_layout`'s wrapped form, which is certain: a
        tabled row has only int labels, so it is at least as wide as
        `[0, 0, 0, 1, [1, 2, 3, 0]]`, 26 characters, and 4 or more rows sum
        to at least 104, past the 100 under which `_layout` writes one line.
        Any other spec, with a row not tabled, another count or fewer rows,
        is laid out by `_layout` itself."""
        pairings = self.pairings
        n = self.tet_count
        if type(n) is int and len(pairings) == 4 * n > 0:
            try:
                head, sep, tail, tables = _ROWS[indent, n]
            except KeyError:
                head, sep, tail, tables = _ROWS[indent, n] = _frame(indent, n)
            try:
                return f"{head}{sep.join(map(getitem, tables, pairings))}{tail}"
            except (KeyError, TypeError):
                pass
        tables = _row_tables(indent, len(pairings))
        rows = [_row_text(table, i, p, indent)
                for i, (table, p) in enumerate(zip(tables, pairings))]
        count = str(n) if type(n) is int else _render(n, indent + 1)
        pad = "  " * (indent + 1)
        return (f'{{\n{pad}"tet_count": {count},\n'
                f'{pad}"pairings": {"".join(_layout(rows, indent + 1))}\n'
                f'{"  " * indent}}}')

    @classmethod
    def from_json_obj(cls, obj) -> "GluingSpec":
        if not isinstance(obj, dict):
            raise GluingError("gluing JSON must be an object")
        n = obj.get("tet_count")
        rows = obj.get("pairings")
        if type(n) is not int or n < 1:
            raise GluingError("tet_count must be a positive integer")
        if not isinstance(rows, list) or len(rows) != 4 * n:
            raise GluingError(f"pairings must list exactly {4 * n} entries")
        table = [None] * (4 * n)
        # Only what placing a row needs; validate judges the partner and map.
        for row in rows:
            if (not isinstance(row, list) or len(row) != 5
                    or any(type(v) is not int for v in row[:2])):
                raise GluingError(f"malformed pairing row {row!r}")
            t, f, t2, f2, s = row
            if not (0 <= t < n and 0 <= f < 4):
                raise GluingError(f"pairing row for out-of-range face ({t},{f})")
            if table[4 * t + f] is not None:
                raise GluingError(f"duplicate pairing row for face ({t},{f})")
            table[4 * t + f] = (t2, f2, tuple(s) if isinstance(s, list) else s)
        # 4n rows and none duplicated: every face has its row.
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


@dataclass(frozen=True)
class Triangulation:
    """A validated gluing together with its derived combinatorics.

    A triangulation stores its spec, an edge parent list and that list's
    root count `n_edges`: the list of the `_Quotients` that `build` glued
    it in, or the copy on which `search_gluings` united a leaf's last
    pairing.  Every other field derives on first read and is kept:
    `edge_classes` and `edge_class_of` from the edge parent list,
    `vertex_classes` from one union pass of the pairing table over the
    vertices, and `boundary_links` from that pass and the edge parent list,
    with a corner at either end of each edge class (an orientable gluing
    glues none to itself reversed; see the module docstring).  A predicate
    reading only `n_edges` and `tet_count`, as the census filter does,
    derives nothing.  Every field is a function of the spec, so equality
    and hashing read the spec alone and repr the spec and `n_edges`: none
    of them derives a field.  As in `GluingSpec`, the one `__init__` writes
    the three stored fields into the instance dict, where the cached
    properties keep theirs, and the record is frozen after.

    edge_class_of[t][e] is the index of the edge class containing local edge
    e of tetrahedron t; this is the quotient map every metric quantity is
    scattered through.
    """

    spec: GluingSpec
    _edge: list = field(compare=False, repr=False)
    n_edges: int = field(compare=False)

    def __init__(self, spec: GluingSpec, _edge: list, n_edges: int):
        d = self.__dict__
        d["spec"] = spec
        d["_edge"] = _edge
        d["n_edges"] = n_edges

    @property
    def tet_count(self) -> int:
        return self.spec.tet_count

    @cached_property
    def edge_classes(self) -> tuple:
        return tuple(EdgeClass(index=i, corners=tuple(divmod(x, 6) for x in g))
                     for i, g in enumerate(_orbits(self._edge)[0]))

    @cached_property
    def edge_class_of(self) -> tuple:
        of = _orbits(self._edge)[1]
        return tuple(tuple(of[6 * t:6 * t + 6]) for t in range(self.tet_count))

    @cached_property
    def vertex_classes(self) -> tuple:
        return tuple(tuple(divmod(x, 4) for x in g)
                     for g in _orbits(_vertex_parents(self.spec))[0])

    @cached_property
    def boundary_links(self) -> tuple:
        # A link's triangles are its vertex class's members, and the edge
        # class of root 6t+e, e = {a, b}, puts a corner in the class of
        # (t, a) and one in that of (t, b).
        orbits, of = _orbits(_vertex_parents(self.spec))
        corners = [0] * len(orbits)
        for x, p in enumerate(self._edge):
            if p == x:
                for v in EDGE_VERTEX_PAIRS[x % 6]:
                    corners[of[x // 6 * 4 + v]] += 1
        return tuple(BoundaryLink(vertex_class=j, chi=c - 3 * len(g) // 2 + len(g),
                                  triangles=len(g), sides=3 * len(g) // 2,
                                  corners=c)
                     for j, (g, c) in enumerate(zip(orbits, corners)))

    @cached_property
    def quotient(self):
        """The quotient map as a `metric.Quotient`, built on first read and
        kept, like the class fields."""
        from .metric import Quotient  # metric imports this module
        return Quotient(self)


class _Quotients:
    """Union-find over the tetrahedra t and the local edges 6t+e of n
    tetrahedra.  Vertices are left to `_vertex_parents`, which a
    `Triangulation` runs on its pairing table when a vertex field is first
    read.

    A union links the larger root under the smaller, so every link points to
    a smaller item and each root is the least member of its orbit.  Paths
    are never compressed.  `tet_roots` and `edge_roots` count the roots of
    each list, and every union keeps them up to date.  `build` glues a
    gluing's pairings into one state; `search_gluings` glues each pairing
    but a gluing's last into a `copy` of its parent's state, and unites the
    last one with `_unite` in a copy of `edge` alone.

    The orbits of the tetrahedra are the components of the gluing.  A
    tetrahedron's parity bit is set where its orientation opposes its
    parent's: an odd pairing keeps a coherent orientation and an even one
    reverses it, so `glue` refuses a pairing closing a cycle of odd parity.
    No gluing it accepts thus glues an edge class to itself reversed.
    """

    def __init__(self, n: int):
        self.tet, self.edge = list(range(n)), list(range(6 * n))
        self.parity = [0] * n
        self.tet_roots, self.edge_roots = n, 6 * n

    def copy(self) -> "_Quotients":
        """An equal state that shares no list with this one."""
        q = object.__new__(_Quotients)
        q.tet, q.edge, q.parity = self.tet[:], self.edge[:], self.parity[:]
        q.tet_roots, q.edge_roots = self.tet_roots, self.edge_roots
        return q

    def root(self, t: int):
        """The root of tetrahedron t, and whether their orientations
        differ."""
        tet, parity = self.tet, self.parity
        odd = 0
        while tet[t] != t:
            odd ^= parity[t]
            t = tet[t]
        return t, odd

    def glue(self, t: int, f: int, t2: int, s: tuple, roots=None) -> bool:
        """Join the tetrahedra and identify the local edges that the pairing
        of face (t, f) into tetrahedron t2 through s identifies; False,
        gluing nothing, if that pairing makes the gluing non-orientable.
        A caller that has walked t and t2 to their roots a and b may pass
        roots = (a, b, odd), odd being whether their orientations differ
        as `root` reads them, and glue walks nothing."""
        if roots is None:
            a, odd = self.root(t)
            b, odd2 = self.root(t2)
            odd ^= odd2
        else:
            a, b, odd = roots
        # Whether b's orientation opposes a's once glued: an even map
        # reverses the orientation across the face.
        flip = (_SIGN[s] > 0) ^ odd
        if b < a:
            a, b = b, a
        if a < b:
            self.tet[b] = a
            self.parity[b] = flip
            self.tet_roots -= 1
        elif flip:
            return False
        self.edge_roots -= _unite(self.edge, _FACE_MAPS[(f, s)][0],
                                  6 * t, 6 * t2)
        return True


def _unite(parent, pairs, at, at2):
    # Unite at+a with at2+b for each (a, b) in pairs, as _Quotients links
    # roots.  Returns the number of unions made.
    unions = 0
    for a, b in pairs:
        a += at
        b += at2
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if b < a:
            a, b = b, a
        if a < b:
            parent[b] = a
            unions += 1
    return unions


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


def build(spec: GluingSpec, *, enforce_link_hypothesis: bool = True) -> Triangulation:
    """Validate a gluing and derive its edge/vertex classes and boundary links.

    Checks the pairing table and glues each face pairing once into a
    `_Quotients` union-find, which refuses a non-orientable gluing; the
    classes and links are derived when first asked for (see
    `Triangulation`).  With enforce_link_hypothesis (the default), reads
    the links at once and raises BoundaryHypothesisError unless every
    boundary link has Euler characteristic < 0, the standing hypothesis of
    the geometric modules.  Search predicates and purely combinatorial
    diagnostics may disable it.
    """
    spec.validate()
    quotients = _Quotients(spec.tet_count)
    for i, (t2, f2, s) in enumerate(spec.pairings):
        t, f = divmod(i, 4)
        if 4 * t2 + f2 > i and not quotients.glue(t, f, t2, tuple(s)):
            raise GluingError(
                "gluing is non-orientable (inconsistent orientation across "
                f"face ({t},{f}))")
    tri = Triangulation(spec, quotients.edge, quotients.edge_roots)
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


def _vertex_parents(spec: GluingSpec) -> list:
    # The vertex parent list of spec: one union pass of its pairings over the
    # vertices 4t+v (4t = i & ~3 at face i = 4t+f), linked as _Quotients links.
    vert = list(range(4 * spec.tet_count))
    for i, (t2, f2, s) in enumerate(spec.pairings):
        if 4 * t2 + f2 > i:
            _unite(vert, _FACE_MAPS[(i & 3, tuple(s))][1], i & ~3, 4 * t2)
    return vert


def single_hyperbolic_class(tri: Triangulation) -> bool:
    """One edge class and every boundary link of negative Euler characteristic.

    Read off the edge and tetrahedron counts alone, which derives nothing:
    a one-edge gluing of n tetrahedra has one link, and its chi is 2(1 - n).

    * No orientable gluing glues an edge class to itself reversed (see the
      module docstring), so the one edge class has a first end, in some
      vertex class A, and a second end, in some vertex class B, and every
      local edge has one end in A and the other in B.
    * A = B: otherwise the four vertices of a tetrahedron would be coloured
      A or B with the two ends of each of its six edges apart, a proper
      2-colouring of K_4, which has none.  Every vertex is the end of an
      edge, so there is one vertex class, and so one link.
    * The links' chi sum to 2(E - n) (their corners number 2E, their sides
      6n and their triangles 4n), so the one link has chi = 2(1 - n), which
      is negative exactly when n >= 2.
    """
    return tri.n_edges == 1 and tri.tet_count > 1


def any_gluing(tri: Triangulation) -> bool:
    return True


def all_torus_links(tri: Triangulation) -> bool:
    return all(l.chi == 0 for l in tri.boundary_links)


def search_gluings(tet_count: int, predicate) -> list:
    """Exhaustively enumerate closed orientable gluings of 1 or 2 tetrahedra.

    Faces are paired in lexicographic order (the lowest unpaired face is
    matched against every strictly later face under the six compatible
    permutations in a fixed order, each with its inverse written at the
    partner), so the result list is deterministic and order-stable.  Each
    pairing but the last glues the tetrahedra and local edges it joins into
    a copy of the `_Quotients` union-find its parent glued, and the pairings
    placed after it glue into copies of that: no state is written once
    copied, so backtracking undoes nothing.  Where the two tetrahedra
    already share a root, only the three permutations of the sign that
    keeps an orientation are tried, in the same order, so every glue
    succeeds and only orientable gluings are completed.  Gluings whose
    tetrahedra split into more than one component (more than one
    tetrahedron root) describe disjoint unions rather than a single
    manifold and are skipped: the last pairing is tried only where it
    leaves one root.  Its local edges are united in a copy of the edge
    parent list that the leaf keeps, and no orientation need be checked
    there: across one root the maps are already of the orientable sign, and
    across two none can be refused.  Every complete gluing hands predicate
    the `Triangulation` of its spec, that copy and its edge root count: it
    equals what `build(spec, enforce_link_hypothesis=False)` returns,
    without re-checking what the enumeration guarantees.  A gluing
    is kept iff predicate(tri) holds.
    """
    if type(tet_count) is not int or tet_count not in (1, 2):
        raise ValueError("search supports 1 or 2 tetrahedra")
    n_faces = 4 * tet_count
    table = [None] * n_faces  # entry 4*t + f, as in GluingSpec.pairings
    found = []
    # The maps s of face i onto each later face j (s[f] == f2, in _PERMS4
    # order), then the odd three and the even three, each in that order.
    # Each comes with the local edge pairs it identifies and the table
    # entries (t2, f2, s) and (t, f, s^-1) it writes, made once so that the
    # specs of the leaves share them.
    rows = {}
    for i in range(n_faces):
        for j in range(i + 1, n_faces):
            t, f, t2, f2 = i >> 2, i & 3, j >> 2, j & 3
            maps = tuple((s, (t2, f2, s), (t, f, _INVERSE[s]),
                          _FACE_MAPS[f, s][0]) for s in _PERMS4 if s[f] == f2)
            rows[i, j] = maps, tuple(
                tuple(m for m in maps if _SIGN[m[0]] == sign) for sign in (-1, 1))

    # place recurses through its argument: a closure naming itself would be
    # a reference cycle, keeping found alive until the garbage collector runs.
    # left pairings are still to place, the lowest free face at or after i,
    # into the gluing whose placed pairings quotients has glued.
    def place(quotients, i, left, place):
        while table[i] is not None:
            i += 1
        t = i >> 2
        a, odd = quotients.root(t)
        for j in range(i + 1, n_faces):
            if table[j] is not None:
                continue
            t2 = j >> 2
            b, odd2 = quotients.root(t2)
            maps, by_parity = rows[i, j]
            if a == b:
                # Only the maps of one sign keep an orientation: the even
                # ones if the two orientations differ, else the odd ones.
                maps = by_parity[odd ^ odd2]
            if left > 1:
                roots = (a, b, odd ^ odd2)
                for s, row, back, _ in maps:
                    glued = quotients.copy()
                    glued.glue(t, i & 3, t2, s, roots)
                    table[i], table[j] = row, back
                    place(glued, i + 1, left - 1, place)
            elif quotients.tet_roots - (a != b) == 1:
                # The last pairing, which leaves one tetrahedron root.
                for _, row, back, pairs in maps:
                    edge = quotients.edge[:]
                    n_edges = quotients.edge_roots - _unite(edge, pairs,
                                                            6 * t, 6 * t2)
                    table[i], table[j] = row, back
                    spec = GluingSpec(tet_count, tuple(table))
                    if predicate(Triangulation(spec, edge, n_edges)):
                        found.append(spec)
            table[i] = table[j] = None

    place(_Quotients(tet_count), 0, 2 * tet_count, place)
    return found
