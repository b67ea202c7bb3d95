"""Dense-matrix simulator and analysis toolkit for state-based
imaginary-time evolution with controlled-SWAP post-selection."""

from .bounds import (
    BoundsReport,
    beta_star,
    build_bounds_report,
    distance_upper_bound,
    error_budget,
    expansion_error_report,
    fidelity_lower_bound,
    n_star,
    p_star,
    product_error_report,
    sim_distance_bound,
    strategy_b_probability,
    trotter_error,
)
from .config import ExperimentConfig, load_config, parse_model, validate_config
from .engine import (
    ProbabilityLedger,
    SampleResult,
    Trajectory,
    TrotterPlan,
    cswap_channel,
    make_plan,
    run,
    run_rows,
    sample_run,
    step_strategy_a,
    step_strategy_b,
)
from .errors import (
    CapacityError,
    ConfigError,
    ExtinctionError,
    MatrixDomainError,
    NonHermitianError,
    PlanError,
)
from .exact import (
    SpectralData,
    bures_distance,
    energy,
    exact_ite,
    fidelity,
    ground,
    ground_basis,
    populations,
)
from .experiment import ResultRow, emit_csv, emit_svg, run_experiment, uniform_state
from .hamiltonian import (
    IsingParams,
    PauliString,
    PauliSum,
    ResourceDecomposition,
    ResourceTerm,
    build_ising,
    decompose_ising_local,
    decompose_pauli_generic,
    densify,
    shift_to_positive,
)
from .linalg import (
    RegisterLayout,
    embed_operator,
    frobenius_norm,
    hermitian_eig,
    kron,
    operator_norm,
    qubit_layout,
)

__version__ = "0.1.0"
