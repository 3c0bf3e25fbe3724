"""Unrolled quantum sl2 at even roots of unity: modules, ribbon data,
renormalized tangle invariants, deformation-limit invariants on projective
colors, and singlet-side regularized dimensions with fusion data."""

from .jets import Jet, OrderError, PoleError, as_jet, jet
from .qnum import QContext, qbracket, qint, qpow
from .rep import (
    DeformX, Dual, LinearMap, ModuleLabel, OneDim, Projective, RangeError,
    SelfExt, Simple, SingularError, Sum, Tensor, Typical, WeightModule,
    deformable_change_of_basis, deformable_layout, direct_sum, dual, format_label, hom_space,
    intertwiner_residual, make_deformable, make_module, module_dump, parse_complex,
    tensor, verify_relations,
)
from .ribbon import (
    CalibrationError, NoClosedFormError, NonScalarError, NotProjectiveError, RibbonConfig,
    braiding_matrix, calibrate, get_config, hopf_closed_form, modified_dim,
    modified_trace, scalar_of,
)
from .tangle import (
    BasisError, EndoDecomp, NotEndomorphismError, TangleExpr, TangleSyntaxError,
    TypeMismatchError, decompose_endo, eval_tangle, hopf_tangle, parse_color,
    parse_tangle, power_hopf_tangle, random_braid_tangle, renormalized_invariant,
    twist_loop_tangle,
)
from .deform import (
    CrossCheckError, DimLimitReport, LogInvariantResult, dim_limit_check,
    log_hopf_closed, log_tangle_invariant,
)
from .singlet import (
    Atyp, BoundaryError, CompareReport, DomainError, Fock, FusionVector,
    RegimeError, Regularization, VACUUM, VerlindeReport, alpha_minus,
    alpha_plus, alpha_ts, alpha_zero, b_threshold, compare_hopf_qdim, fuse,
    parse_singlet_label, phi_dictionary,
    phi_inverse, projective_strip, qdim_reg, regime_of, strip_eps, verlinde_hom_check,
)

__version__ = "0.1.0"
