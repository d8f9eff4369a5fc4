"""Protected adiabatic evolution at desk scale: Pauli algebra, stabilizer
decoupling codes, pulse schedules, a dense time-ordered propagator, and the
full chain of error bounds."""

from .pauli import PauliString, pauli_mul, commutes, to_dense, apply_pauli
from .linalg import (
    op_norm,
    trace_norm,
    expm_hermitian,
    logm_unitary,
    partial_trace,
    BranchCutError,
)
from .codes import (
    DecouplingGroup,
    StabilizerCode,
    LogicalOperatorSet,
    SyndromeSector,
    universal_group,
    global_x_group,
    trivial_group,
    group_average,
    code_from_universal_group,
    encode_hamiltonian,
    penalty_hamiltonian,
    syndrome_sectors,
)
from .model import (
    Schedule,
    AdiabaticSpec,
    SystemBathSpec,
    SpectralReport,
    schedule_eval,
    universal_aqc_terms,
    linear_decoherence,
    min_gap,
)
from .protocols import (
    PulseSchedule,
    ScalingRule,
    pdd_schedule,
    pulse_generator,
    scaled_parameters,
)
from .engine import (
    AffineGenerator,
    IntegratorConfig,
    RunArtifacts,
    ClosedRun,
    propagate_with_stats,
    instantaneous_ground_state,
    run_closed_adiabatic,
    run_protected,
    frame_unitary,
    effective_hamiltonian,
)
from .metrics import (
    ErrorReport,
    RunMeta,
    PhiBudget,
    trace_distance,
    error_report,
    phi_budget,
    dd_error_prediction,
)
from .config import ExperimentConfig, SweepSpec, load_config, load_sweep, loads_config
from .runner import run_experiment, execute_experiment, run_sweep

__version__ = "0.1.0"
