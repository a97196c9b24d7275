"""Hyperideal tetrahedra, cone metrics, curvature flow and angle structures
on ideally triangulated compact 3-manifolds with geodesic boundary."""

__version__ = "0.1.0"

from .angles import (AngleAssignment, LPResult, Realization, VolumeMaxReport,
                     lp_feasibility, maximize_volume, realize_structure)
from .dynamics import (AttractorReport, FlowConfig, FlowTrace, MinimizeReport,
                       RigidityReport, attractor_experiment, flow,
                       minimize_energy, rigidity_probe)
from .errors import (BoundaryHypothesisError, ConvergenceError,
                     DefinitenessError, GluingError, HyperidealError,
                     InadmissibleShapeError)
from .metric import (ConeMetric, Evaluation, curvature, curvature_jacobian,
                     evaluate)
from .tetgeom import (ConvexityProbe, TetShape, angles_from_lengths,
                      arcs_from_lengths, is_admissible, jacobian_angles_lengths,
                      lengths_from_angles, minkowski_oracle,
                      probe_length_space_convexity, schlafli_potential, shape)
from .triangulation import (BoundaryLink, EdgeClass, GluingSpec, Triangulation,
                            build, search_gluings)

__all__ = [name for name in dir() if not name.startswith("_")]
