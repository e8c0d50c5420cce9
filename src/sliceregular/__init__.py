"""Numerical calculus of slice regular quaternionic functions."""

from .errors import (
    CenterMismatch,
    DegenerateUnits,
    DomainError,
    DomainNotSymmetric,
    NoRealTrace,
    NonConvergence,
    NonFiniteValue,
    NotASlicePoint,
    RealTraceMismatch,
    SingularPoint,
    SliceRegularError,
    ZeroBase,
)
from .expr import (
    Conj,
    Ext,
    Poly,
    RawMap,
    Recip,
    RightScalar,
    SliceExpr,
    SplitPair,
    Star,
    StemFunction,
    Sum,
    Symm,
    conj_eval,
    evaluate,
    from_split,
    identity_expr,
    recip_eval,
    regularity_residual,
    slice_derivative,
    split,
    star_eval,
    star_via_composition,
    symm_eval,
)
from .extension import ext_from_holomorphic, extend, restriction_stem, sphere_affine_coeffs
from .polynomial import (
    SlicePolynomial,
    conj_poly,
    monomial_minus,
    polynomial,
    star_poly,
    symm_poly,
)
from .quaternion import (
    ImaginaryUnit,
    ONE,
    Quaternion,
    SlicePoint,
    UNIT_I,
    UNIT_J,
    UNIT_K,
    ZERO,
    from_slice,
    imaginary_unit_of,
    orthogonal_unit,
    quat_inv,
    quat_mul,
    slice_coords,
)
from .representation import (
    AxialDomain,
    Disc,
    Rect,
    SliceRegion,
    general_representation,
    representation,
    symmetric_completion,
)
from .verify import (
    CheckReport,
    SplitMix64,
    check_extension_roundtrip,
    check_grf_invariance,
    check_identity_suite,
)
from .zeros import (
    SphereZero,
    ZeroKind,
    aberth_roots,
    cauchy_kernel,
    poly_roots,
    sphere_zero_classify,
    star_zero_check,
)

__version__ = "0.1.0"
