"""Hyperideal tetrahedra, cone metrics, curvature flow and angle structures
on ideally triangulated compact 3-manifolds with geodesic boundary."""

__version__ = "0.1.0"

from .angles import (AngleAssignment, LPResult, VolumeMaxReport,
                     lp_feasibility, maximize_volume)
from .dynamics import (FlowConfig, FlowTrace, MinimizeReport, flow,
                       minimize_energy)
from .errors import (BoundaryHypothesisError, ConvergenceError,
                     DefinitenessError, GluingError, HyperidealError,
                     InadmissibleShapeError)
from .metric import ConeMetric, Evaluation, evaluate
from .propsuite import (ConvexityProbe, minkowski_oracle,
                        probe_length_space_convexity)
from .tetgeom import (angles_from_lengths, arcs_from_lengths, is_admissible,
                      jacobian_angles_lengths, lengths_from_angles)
from .triangulation import (BoundaryLink, EdgeClass, GluingSpec, Triangulation,
                            build, search_gluings)

__all__ = [name for name in dir() if not name.startswith("_")]
