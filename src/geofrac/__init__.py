"""Fractional integrals and Hermite-Hadamard chains on geodesic spaces."""

from .errors import (AccuracyError, DomainError, ExpressionError,
                     SpaceMismatchError)
from .quadrature import integrate, pointwise
from .fractional import (gamma_fn, hadamard_left, hadamard_right,
                         katugampola_left, katugampola_right, lq_norm_unit,
                         rl_left, rl_right, xcp_norm)
from .spaces import (EuclideanSpace, Geodesic, HalfPlaneSpace, Point,
                     ProductSpace, Space, SpiderSpace, distance, euclidean,
                     geodesic_point, geodesic_restrict, half_plane, product,
                     random_geodesic, random_point, sample_points, spider,
                     cn_gap, busemann_gap, comparison_gap, four_point_gap,
                     sturm_gap)
from .convexity import (ConvexityVerdict, HFunction, check_convex,
                        check_h_convex, check_quasi_or_p_convex,
                        distance_between_geodesics_function, h_function,
                        on_geodesic, scalar_pullback,
                        squared_distance_function)
from .chains import (CHAIN_NAMES, CompositeOperand, InequalityReport,
                     TheoremParams, classic_hh, compute_C, compute_C_oracle,
                     compute_E, conde_hh, corollary_distance, falsify_search,
                     h_hh, thm_cb1, thm_cb2, thm_ty1)
from .expressions import parse_expression

__version__ = "0.1.0"
