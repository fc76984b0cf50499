"""Braiding two-qubit gates: Yang-Baxter catalog, local invariants,
Turaev-enhanced link polynomials, and entangling power."""

from .matrix_core import (
    DEFAULT_TOL,
    SingularMatrixError,
    eigenvalues_xtype,
    invert,
    partial_trace,
    partial_transpose,
    tensor_product,
)
from .yang_baxter import (
    BraidWord,
    CATALOG,
    CatalogEntry,
    XTypeParams,
    assemble,
    braid_rep,
    check_ybe,
    lie_orbit_rank,
    pauli_expand,
    rep_of_word,
)
from .invariants import (
    InvariantSet,
    check_identities,
    class_eigen_report,
    contraction_oracle,
    linear_invariant,
    quadratic_invariants,
    reconstruct_params,
    xtype_closed_forms,
)
from .enhancement import (
    EnhancedOperator,
    RECIPES,
    bmw_witness,
    hecke_witness,
    instantiate_recipe,
    jordan_witness,
    link_polynomial,
    markov_check,
    solve_enhancement,
    verify_enhancement,
)
from .entangling_power import (
    ProductState,
    apply_to_product,
    entangling_power_closed,
    entangling_power_quadrature,
    j2_invariant,
    unitary_xtype,
)
from .hietarinta import (
    HIETARINTA_FORMS,
    RECIPE_TABLE,
    classify,
    conjugate,
    discrete_transform,
    hietarinta_assemble,
    permutation_convert,
    rh_extras_report,
    verify_recipe,
)

__version__ = "0.1.0"
