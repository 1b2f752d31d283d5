"""Bargmann invariants of positive operators and set-coherence tests.

A collection of quantum states is *set incoherent* when all pairs commute
(equivalently, when one orthonormal basis diagonalizes them all).  This
package evaluates the multivariate-trace invariants tr(rho_l1 ... rho_lm),
decides commutativity through the fourth-order equality
tr(A^2 B^2) = tr(ABAB), and bundles the auxiliary one-sided criteria
(overlap-polytope facets, Bloch Gram rank, qubit polynomial reductions, an
imaginarity witness) together with shot-based estimation and a CLI.
"""

from .criteria import (
    COMMUTE_TOL,
    SET_COHERENT,
    SET_INCOHERENT,
    CoherenceReport,
    FacetReport,
    GramRankReport,
    ImaginarityWitness,
    PairGap,
    QubitCriterionResult,
    c3_facet_check,
    commutator_gap,
    gram_bloch,
    gram_rank_criterion,
    imaginarity_witness,
    qubit_criterion,
    qubit_delta1122,
    qubit_delta1212,
    qubit_fourth_order,
    reduced_set_coherence,
    set_coherence_decide,
    winc_membership,
)
from .estimator import (
    EstimateResult,
    EstimatorConfig,
    GapEstimate,
    estimate_gap,
    estimate_invariant,
)
from .exceptions import (
    BargmannError,
    DegenerateReferenceError,
    DocumentError,
    HermiticityError,
    NormalizationError,
    NumericError,
    NumericInconsistencyError,
    PositivityError,
    ShapeError,
    TraceError,
    WordError,
)
from .fixtures import FIXTURE_NAMES, Fixture, PaperCheckReport, fixture, paper_check
from .invariants import (
    BargmannScenario,
    ClassicalRealization,
    Word,
    bargmann_invariant,
    classical_invariant,
    evaluate_scenario,
    parse_word,
    scenario_catalog,
)
from .io import StateSet, load_state_set, save_state_set, state_set_from_document, state_set_to_document
from .numkernel import chain_product_trace, hermitian_eig
from .states import (
    BlochVector,
    PositiveOperator,
    bloch_map,
    commuting_set,
    embed,
    haar_unitary,
    maximally_mixed,
    overlap,
    pure_state,
    purity,
    qubit_from_bloch,
    random_state,
    traceless_hermitian_basis,
    validate_state,
)

__version__ = "0.1.0"
