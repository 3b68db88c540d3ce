"""Certified lower bounds on quantum channel capacities.

Send half of a bipartite probe state through a channel, measure a POVM on
reference plus output, and combine the outcome statistics with
channel-independent weights computed from the probe state and the POVM.  The
result is a lower bound on the quantum capacity (and on the private and
entanglement-assisted classical capacities) of the channel, with no process
tomography involved.
"""

from .certify import (
    CertificationResult,
    Detector,
    certify,
    coherent_information,
    depolarizing_isotropic_qdet,
    entropy_exchange,
    erasure_exact_capacity,
    erasure_qdet_closed_form,
    hashing_bound,
    qdet_from_statistics,
    t_vector,
    threshold_fidelity,
)
from .channels import (
    QuantumChannel,
    apply_channel,
    apply_extended_channel,
    depolarizing_channel,
    erasure_channel,
    pauli_channel,
    weyl_unitary,
)
from .errors import (
    CertificationError,
    ConfigError,
    DegenerateMeasurementError,
    DimensionMismatchError,
    InternalConsistencyError,
    InvalidStateError,
)
from .harness import (
    SweepSpec,
    build_channel,
    build_povm,
    build_probe,
    estimate_qdet,
    figure_rows,
    parse_sweep,
    run_point,
    run_sweep,
    write_csv,
)
from .linalg import (
    SpectralDecomposition,
    binary_entropy,
    double_ket,
    hermitian_eigen,
    matrix_sqrt,
    partial_trace_reference,
    partial_trace_system,
    probability_vector,
    pseudo_inverse,
    shannon_entropy,
    validate_density_matrix,
    von_neumann_entropy,
)
from .measurement import (
    Povm,
    bell_povm,
    coarse_grain,
    erasure_povm,
    outcome_probabilities,
    pauli_bell_convolution,
)
from .probes import (
    BipartiteProbeState,
    bell_diagonal_probe,
    custom_probe,
    isotropic_probe,
    max_entangled_probe,
    reduced_system_state,
)
from .sampling import ShotRecord, derive_subseed, sample_outcomes, uniform_stream

__version__ = "0.1.0"

# The public API is every name imported above, written once there.
__all__ = sorted(
    name for name, value in globals().items() if getattr(value, "__module__", "").startswith(__name__ + ".")
)
