"""epwcalc: exact-arithmetic invariants of EPW cubes and the fixed locus
of their antisymplectic involution.

Everything is computed over Q (or with Laurent polynomials in the BBF
square q of the polarization); no floats anywhere.
"""

from .degeneration import (
    CONTRACTED_RAY_VECTOR,
    FOURFOLD_VECTOR,
    HILB_VECTOR,
    SPHERICAL_VECTOR,
    F3RelationTable,
    SymProdClass,
    WallCharge,
    WallPoint,
    central_charge,
    effectivity_of_pell_class,
    effectivity_ratio,
    ext_dimensions,
    f3_hodge_relations,
    jacobian_class_of_E,
    kuranishi_identity_check,
    pell_spherical_classes,
    plane_curve_genus,
    sym_prod_eval,
    theta_characteristic_counts,
)
from .fujiki import (
    FUJIKI_CONSTANTS,
    AbstractClassSpace,
    enumerate_matchings,
    fujiki_constant,
    polarized_integral,
)
from .hodge_ring import (
    BASIS,
    CHERN_NUMBER_C2C4,
    CHERN_NUMBER_C6,
    HodgeClass,
    basis_class,
    c2_class,
    c4_class,
    chern_numbers_from_ring,
    derive_degree8_relation,
    derive_degree10_relations,
    eta_class,
    h_power,
    integrate,
    integrate_product,
    lambda_class,
    multiply,
    verify_independence_degree6,
    zero_class,
)
from .lagrangian import (
    EPW_DEGREE,
    EPW_Q,
    FixedLocusInvariants,
    disambiguate_involution_case,
    eta_coefficient,
    fixed_locus_invariants,
    hodge_symmetry_relation,
    project_lagrangian_class,
    self_intersection,
)
from .llv import (
    CASES,
    SIXFOLD_EULER,
    T_DIM,
    LLVSummand,
    betti_even,
    betti_of_quotient,
    euler_of_fixed_locus,
    euler_of_quotient,
    invariant_dimension,
    rep_dimension,
    summand_table,
)
from .mukai import (
    MukaiVector,
    NSClass,
    bbf_pairing,
    bbf_square,
    hyperbolic_lattice,
    mukai_pairing,
    square_and_divisibility,
    theta_map,
)
from .qfield import ParametricScalar, rational_sqrt

__version__ = "0.1.0"
