"""Exact computation and certification of symmetric ranks of G-lattices.

A G-lattice is Z^n equipped with an action of a finite group of integer
matrices; its symmetric rank is the minimal size of a G-stable generating
set.  This package computes these quantities exactly -- arbitrary
precision everywhere, no floating point on any certified path -- along
with the supporting machinery: integer lattice normal forms, finite
matrix-group orbits, Weyl group lattices, theta series of positive
definite forms, GF(2) cyclotomic factorizations, monomial group
reductions, and big-integer inequality scans over simple-group data.
"""

from .errors import (
    CapExceeded,
    FixtureMismatch,
    FormNotPreserved,
    GLatticeError,
    HorizonTooSmall,
    HypothesisNotMet,
    InvalidCase,
    InvalidRank,
    KindUnavailable,
    MissingExternalData,
    NonUnimodularConjugator,
    NonUnimodularGenerator,
    NotASublattice,
    NotGStable,
    NotInLattice,
    NotOddPrime,
    NotPrimePower,
    UnknownFormula,
)
from .intmat import (
    INFINITE,
    IntMatrix,
    IntVector,
    LatticeBasis,
    SmithDecomposition,
    full_lattice,
    hnf,
    hnf_from_rows,
    index,
    is_primitive,
    lattice_sum,
    member,
    ones_vector,
    snf,
    unit_vector,
    zero_lattice,
)
from .matgroup import (
    MatGroup,
    Orbit,
    closure,
    commutant_dimension,
    conjugate,
    in_lattice_coordinates,
    orbit,
    restrict_lattice,
    stabilizer_order,
)
from .rootsys import (
    RootSystemSpec,
    WeylModel,
    build,
    lattice,
    rdim_lower_bound,
    short_root_count,
    weyl_symrank_table,
    weyl_orbit_size,
)
from .search import SymrankResult, symrank_search, table_dimension_maximum, verify_orbit_generates
from .theta import GramForm, ThetaPrefix, diagonal_bound, short_vectors, theta_prefix
from .gf2cyclo import (
    CyclotomicFactorization,
    GF2Poly,
    binary_sublattice,
    binary_sublattices,
    cp_stable_subspaces,
    diag_generators,
    factor_xp_minus_1,
    ord2,
)
from .monomial import (
    MonomialElement,
    MonomialGroup,
    full_monomial_group,
    monomial_orbit_bound,
    o2_diagonal_part,
    project_pi,
    three_sublattice_report,
    support_reduce,
)
from .bounds import (
    BoundVerdict,
    check_numerical_lemma,
    min_threshold,
    mon_metacyclic_bound,
    prime_of_form,
    psl_order,
    prime_case_check,
)
from .groupdata import almost_simple_scan, load_data

__version__ = "0.1.0"
