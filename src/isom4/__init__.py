"""Verification toolkit for isometry bounds on positively curved 4-manifolds."""

from .claims import ClassificationQuery, StatementRecord, classify
from .cohomology import (
    build_central_extension,
    classify_central_extensions,
    cocycle_representatives,
    second_cohomology,
    unique_nontrivial_extension,
)
from .embeddings import (
    MatrixRep,
    embed_into_so5,
    polyhedral_so3,
    pu3_metacyclic,
    so5_model,
)
from .errors import (
    BudgetError,
    InvalidInputError,
    InvalidParametersError,
    UnsupportedCaseError,
)
from .fixedpoints import (
    FixedSetDescriptor,
    fixed_set_cp2,
    involution_catalog,
    lefschetz_sweep_cp2,
    lefschetz_sweep_s4,
)
from .groups import (
    FiniteGroup,
    build_group,
    build_metacyclic,
    find_isomorphism,
    is_isomorphic,
    matches_family,
    max_cyclic_normal_index,
    order_gl,
)
from .sphere import (
    ExtentConfig,
    ExtentReport,
    LensParams,
    SpherePoint,
    canonicalize_lens,
    extent_lower_bound,
    extent_upper_bound,
    isolated_fixed_point_budget,
    scan_extent,
    scan_extent_threshold,
)
from .verify import CheckRecord, VerifyConfig, exit_code, verify_all

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "CheckRecord",
    "ClassificationQuery",
    "ExtentConfig",
    "ExtentReport",
    "FiniteGroup",
    "FixedSetDescriptor",
    "InvalidInputError",
    "InvalidParametersError",
    "LensParams",
    "MatrixRep",
    "SpherePoint",
    "StatementRecord",
    "UnsupportedCaseError",
    "VerifyConfig",
    "__version__",
    "build_central_extension",
    "build_group",
    "build_metacyclic",
    "canonicalize_lens",
    "classify",
    "classify_central_extensions",
    "cocycle_representatives",
    "embed_into_so5",
    "so5_model",
    "exit_code",
    "extent_lower_bound",
    "extent_upper_bound",
    "find_isomorphism",
    "fixed_set_cp2",
    "involution_catalog",
    "is_isomorphic",
    "isolated_fixed_point_budget",
    "lefschetz_sweep_cp2",
    "lefschetz_sweep_s4",
    "matches_family",
    "max_cyclic_normal_index",
    "order_gl",
    "polyhedral_so3",
    "pu3_metacyclic",
    "scan_extent",
    "scan_extent_threshold",
    "second_cohomology",
    "unique_nontrivial_extension",
    "verify_all",
]
