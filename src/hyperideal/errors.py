"""Exception hierarchy shared across the package."""


class HyperidealError(Exception):
    """Base class for every error raised by this package."""


class GluingError(HyperidealError, ValueError):
    """Structurally invalid gluing data.

    Raised for non-involutive pairings, unpaired or self-paired faces,
    out-of-range indices, malformed permutations and non-orientable gluings.
    """


class BoundaryHypothesisError(HyperidealError, ValueError):
    """Some boundary link has Euler characteristic >= 0."""

    def __init__(self, message, chi_by_class=None):
        super().__init__(message)
        self.chi_by_class = tuple(chi_by_class) if chi_by_class is not None else None


class InadmissibleShapeError(HyperidealError, ValueError):
    """Data that does not describe a hyperideal tetrahedron.

    ``reason`` is one of ``nonpositive_length``, ``corner_cosine``,
    ``vertex_sum``, ``angle_range``.  ``edge`` / ``vertex`` locate the
    offending corner in the local labelling; one cosine serves both ends of
    an edge, so a ``corner_cosine`` names the edge's first endpoint
    ``EDGE_VERTEX_PAIRS[edge][0]``.  ``tet`` is filled in when the shape
    sits in a batch, a triangulation's tetrahedra included: its flat index.
    """

    def __init__(self, message, *, reason=None, edge=None, vertex=None,
                 value=None, tet=None):
        super().__init__(message)
        self.reason = reason
        self.edge = edge
        self.vertex = vertex
        self.value = value
        self.tet = tet


class ConvergenceError(HyperidealError, RuntimeError):
    """An iterative solver exhausted its budget or its line search failed.

    ``last`` carries the final iterate so callers can report partial state.
    """

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class DefinitenessError(HyperidealError, RuntimeError):
    """A matrix that must be definite failed its Cholesky factorization.

    The curvature Jacobian is negative definite on the admissible set, so a
    failure here signals either a bug or an iterate outside that set; it is
    reported, never papered over.
    """
