"""Levi forms, q-holomorphicity residuals, discrete hulls, peak extensions.

The package is organized around one expression DSL (`expr`) whose two-jets
feed everything else: q-holomorphicity residuals (`forms`), signature-based
convexity classification (`levi`), discrete hull experiments (`hull`), and
the peak-extension pipeline on model domains (`peak`).  `cli` wraps the lot
behind deterministic, config-driven subcommands.
"""

from .expr import (
    Expr, Const, Var, CVar, Add, Sub, Mul, Div, Pow, Exp, Neg,
    Jet2, ParseError, EvalError,
    parse, to_text, conjugate, eval_value, eval_batch, eval_jet1_batch,
    eval_jet2, eval_jet2_batch, eval_mixed_jet_batch, finite_diff_jet,
)
from .forms import (
    residual_from_jet, q_holo_residual, q_holo_residuals, minor_oracle_residual,
)
from .levi import (
    LeviMatrix, Signature, FunctionClassification, BoundaryClassification,
    eig_signature, signature_oracle, tangent_frame, restricted_levi_form,
    classify_function, classify_boundary_point, sample_boundary, default_ztol,
)
from .hull import (
    Lambda, FamilyMember, HullProblem, HullResult, Thm2Report, BatchReport,
    basener_value, basener_expr, construct_lambda, random_lambdas,
    certify_member, certification_points, build_problem, discrete_hull,
    theorem2_experiment, run_theorem2_batch, sample_sphere, sample_ball,
)
from .peak import (
    ModelDomain, CutoffG, SliceBasis, PeakConstruction, PeakExtension,
    PeakReport, TubeError, select_slice, build_peak_h, assemble_peak,
    verify_peak,
)

__version__ = "0.1.0"

__all__ = [
    "Expr", "Const", "Var", "CVar", "Add", "Sub", "Mul", "Div", "Pow", "Exp",
    "Neg", "Jet2", "ParseError", "EvalError", "parse", "to_text", "conjugate",
    "eval_value", "eval_batch", "eval_jet1_batch", "eval_jet2",
    "eval_jet2_batch", "eval_mixed_jet_batch", "finite_diff_jet",
    "residual_from_jet", "q_holo_residual", "q_holo_residuals",
    "minor_oracle_residual",
    "LeviMatrix", "Signature", "FunctionClassification",
    "BoundaryClassification", "eig_signature", "signature_oracle",
    "tangent_frame", "restricted_levi_form",
    "classify_function", "classify_boundary_point", "sample_boundary",
    "default_ztol",
    "Lambda", "FamilyMember", "HullProblem", "HullResult", "Thm2Report",
    "BatchReport", "basener_value", "basener_expr", "construct_lambda",
    "random_lambdas", "certify_member", "certification_points",
    "build_problem", "discrete_hull", "theorem2_experiment",
    "run_theorem2_batch", "sample_sphere", "sample_ball",
    "ModelDomain", "CutoffG", "SliceBasis", "PeakConstruction",
    "PeakExtension", "PeakReport", "TubeError", "select_slice",
    "build_peak_h", "assemble_peak", "verify_peak",
    "__version__",
]
