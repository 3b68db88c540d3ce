"""The package's public names, written out so that dropping one is seen."""

import qcapdet

PUBLIC = {
    # certify
    "CertificationResult", "Detector", "certify", "coherent_information", "depolarizing_isotropic_qdet",
    "entropy_exchange", "erasure_exact_capacity", "erasure_qdet_closed_form", "hashing_bound",
    "qdet_from_statistics", "t_vector", "threshold_fidelity",
    # channels
    "QuantumChannel", "apply_channel", "apply_extended_channel", "depolarizing_channel", "erasure_channel",
    "pauli_channel", "weyl_unitary",
    # errors
    "CertificationError", "ConfigError", "DegenerateMeasurementError", "DimensionMismatchError",
    "InternalConsistencyError", "InvalidStateError",
    # harness
    "SweepSpec", "build_channel", "build_povm", "build_probe", "estimate_qdet", "figure_rows", "parse_sweep",
    "run_point", "run_sweep", "write_csv",
    # linalg
    "SpectralDecomposition", "binary_entropy", "double_ket", "hermitian_eigen", "matrix_sqrt",
    "partial_trace_reference", "partial_trace_system", "probability_vector", "pseudo_inverse", "shannon_entropy",
    "validate_density_matrix", "von_neumann_entropy",
    # measurement
    "Povm", "bell_povm", "coarse_grain", "erasure_povm", "outcome_probabilities", "pauli_bell_convolution",
    # probes
    "BipartiteProbeState", "bell_diagonal_probe", "custom_probe", "isotropic_probe", "max_entangled_probe",
    "reduced_system_state",
    # sampling
    "ShotRecord", "derive_subseed", "sample_outcomes", "uniform_stream",
}


def test_all_is_the_written_list():
    assert qcapdet.__all__ == sorted(PUBLIC)
    assert all(hasattr(qcapdet, name) for name in qcapdet.__all__)
