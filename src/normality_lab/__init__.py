"""Verification tools for Newtonian systems under generalized fiber
maps: metric duality, derivative transport, cross-representation
agreement of the normality fields, the normality equations themselves,
gauge freedom of the connection, and hypersurface shift simulation.

The submodules layer bottom-up: expr (sources to evaluable scalars),
jets (second-order forward derivatives), system (definitions and the
fiber map), calculus (extended fields and their derivatives),
normality (the field bundle and residuals), experiments (gauge and
shift), sysfile/cli (definition files, check sweeps, reports).
"""

from .calculus import (FieldValue, curvature, curvature_relation,
                       dynamic_curvature, dynamic_curvature_relation,
                       field_of, horizontal_derivative, vertical_derivative)
from .cli import CHECK_IDS, RunConfig, run_checks
from .errors import (AsymmetricGauge, DegeneratePoint, DegenerateSurface,
                     DimensionError, EvalError, ExprSyntaxError,
                     IntegrationFailure, MissingGaugeTensor, MissingJets,
                     MixedRepresentationError, NonConvergence,
                     NormalityLabError, SingularMetric, SystemFileError,
                     ValidationError)
from .experiments import (GaugeReport, GaugeRow, ShiftResult, ShiftRun,
                          connection_free_mode, gauge_invariance_report,
                          shift_integrate)
from .expr import Expression, parse
from .jets import Dense
from .normality import (CROSS_FIELDS, RESIDUAL_IDS, CrossCheck,
                        NormalityBundle, Residual, bundle_at, cross_check_all,
                        lambda_scalar, momentum_bundle, normality_residuals,
                        residual_arrays, velocity_bundle)
from .phase import PhasePoint, Rep
from .sysfile import SystemFile, read_system_file
from .system import (LegendreInverse, MetricPair, PContext, SystemDef,
                     VContext, lagrangian_to_legendre, legendre_forward,
                     legendre_inverse, metric, theta_from_phi,
                     validate_system)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
