"""Exact stratification of plane sheaves with Hilbert polynomial 6m + 1.

Presentations of one-dimensional sheaves on the projective plane by
twisted matrix resolutions, their exact cohomology, the six-stratum
classifier, Kronecker-module semistability, per-stratum samplers and the
polarization window arithmetic.  Everything is computed over Q or F_p
with no floating point anywhere.
"""

from .errors import (
    BudgetExceededError,
    DivisibilityFailure,
    FieldMismatchError,
    InvalidPresentationError,
    MembershipFailure,
    NotInjectiveError,
    NotSemistable,
    NotSquareError,
    ProfileNotInTable,
    RejectionBudgetExceeded,
    SexticStrataError,
    WrongShapeError,
)
from .fields import GF, QQ, PrimeField, RationalField, parse_field
from .forms import Form, common_factor, divides, forms_rank, monomial_basis, mult_map, variables
from .kronecker import (
    KroneckerModule,
    SemistabilityResult,
    Witness,
    gaussian_binomial,
    is_semistable,
    moduli_dimension,
    polarization_windows,
    verify_witness,
)
from .linalg import ScalarMatrix
from .orbit_oracle import orbit_patterns
from .polymatrix import PolyMatrix, det_poly
from .presentation import (
    CohomologyProfile,
    HilbertPoly,
    Presentation,
    dual,
    dumps,
    fitting_determinant,
    h0,
    h0_omega,
    h1,
    hilbert_polynomial,
    is_injective,
    load,
    loads,
    profile,
    save,
    validate,
)
from .rng import SplitMix64, derive_seed
from .sampler import SampleRequest, construct_x5, random_form, sample
from .strata import (
    EXPECTED_PROFILES,
    SHAPES,
    PatternId,
    StratumLabel,
    classification_report,
    classify,
    stratum_dimensions,
    validate_shape,
    x0_condition,
    x1_patterns,
    x2_conditions,
    x3_conditions,
    x4_conditions,
    x5_conditions,
)

__version__ = "0.1.0"
