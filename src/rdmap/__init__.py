"""Optimization-free quantum resource measures.

For a channel E that is idempotent and unital, the distance from a state to
the fixed-point set of E under the Tsallis relative entropy has a closed
form; this package computes it, certifies the maps, and cross-checks the
closed form against a brute-force minimization oracle.
"""

from .channels import (
    MeasurementPartition,
    PartitionChannel,
    QuantumChannel,
    ResourceDestroyingMap,
    certify_rdm,
    cyclic_twirl,
    dephasing_map,
    lueders_map,
    map_from_json,
    map_to_json,
    mixing_map,
    modified_coarse_map,
    twirling_map,
)
from .errors import (
    CertificationError,
    InfiniteValue,
    NoFiniteObjective,
    RdmapError,
    ValidationError,
)
from .linalg import (
    matrix_from_json,
    matrix_log,
    matrix_power,
    matrix_to_json,
    random_density_matrix,
    random_hermitian,
    support_projector,
    validate_density,
)
from .measures import (
    MeasureReport,
    closed_form_measure,
    decomposition_identity_residual,
    report_from_json,
    report_to_json,
    tsallis_relative_entropy,
    von_neumann_entropy,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    minimize_batch,
    minimize_over_free_states,
    simplex_minimize,
)
from .verify import (
    DEFAULT_A_GRID,
    SuiteReport,
    random_partition,
    run_suite,
    suite_axioms,
    suite_continuity_a1,
    suite_piani_demo,
    suite_theorem1,
    suite_theorem2,
)

__version__ = "0.1.0"
