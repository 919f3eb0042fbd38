"""Spectral analysis, reconstruction, and flows for Hankel symbols.

The spectral map sends a symbol to its interlaced singular values with
one Blaschke product each; the inverse is an explicit determinant
formula.  On top of the pair sit closed-form norm identities, best
rank-k Hankel approximation, and the cubic flow with its commuting
hierarchy, integrated both directly and through the spectral data.
"""

from .algebra import Poly, RationalFunction
from .bateman import (IdentityReport, InterlacedValues, identity_residuals,
                      j_of_x, kappa_squares, tau_squares)
from .blaschke import BlaschkeProduct, from_zeros
from .errors import (AmbiguousClusterWarning, ConsistencyError,
                     DegreeMismatchError, FitError, HypothesisViolationError,
                     InputError, NotAnalyticError, NotInnerError,
                     NumericalError, SpectralInconsistencyError, StepSizeError,
                     SzegoError)
from .forward_map import (ForwardDetails, MultiplicityCluster, RealDiagnostics,
                          SpectralData, forward, real_diagnostics)
from .hankel import HankelPair, Symbol, resize_symbol
from .inverse_map import (RoundtripReport, SynthesisResult,
                          collapsed_fourvalue, consistency_report,
                          fourvalue_formula, roundtrip, synthesize)
from .szego_flow import (ConservedRecord, FlowComparison, Trajectory,
                         TravelingWaveReport, compare_flows,
                         conserved_quantities, direct_evolve, exact_evolve,
                         szego_rhs, traveling_wave)
from .aak import (AAKCertificate, AAKResult, SchmidtVector, best_approx,
                  perturbation_sanity, ratio_certificate, schmidt_vector)
from .verify import VerifyCase, run as run_verify

__version__ = "0.1.0"

__all__ = [
    "AAKCertificate", "AAKResult", "AmbiguousClusterWarning",
    "BlaschkeProduct", "ConservedRecord",
    "ConsistencyError", "DegreeMismatchError", "FitError",
    "FlowComparison", "ForwardDetails", "HankelPair",
    "HypothesisViolationError", "IdentityReport", "InputError",
    "InterlacedValues", "MultiplicityCluster", "NotAnalyticError",
    "NotInnerError", "NumericalError", "Poly", "RationalFunction",
    "RealDiagnostics", "RoundtripReport", "SchmidtVector", "SpectralData",
    "SpectralInconsistencyError", "StepSizeError", "Symbol",
    "SynthesisResult", "SzegoError", "Trajectory", "TravelingWaveReport",
    "VerifyCase", "best_approx", "collapsed_fourvalue", "compare_flows",
    "conserved_quantities", "consistency_report",
    "direct_evolve", "exact_evolve", "forward", "fourvalue_formula",
    "from_zeros", "identity_residuals", "j_of_x", "kappa_squares",
    "perturbation_sanity", "ratio_certificate",
    "real_diagnostics", "resize_symbol", "roundtrip", "run_verify",
    "schmidt_vector", "synthesize", "szego_rhs",
    "tau_squares", "traveling_wave",
]
