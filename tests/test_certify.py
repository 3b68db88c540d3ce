import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qcapdet import (
    Detector,
    apply_extended_channel,
    bell_povm,
    certify,
    coherent_information,
    custom_probe,
    depolarizing_channel,
    depolarizing_isotropic_qdet,
    entropy_exchange,
    erasure_channel,
    erasure_exact_capacity,
    erasure_povm,
    erasure_qdet_closed_form,
    hashing_bound,
    isotropic_probe,
    max_entangled_probe,
    outcome_probabilities,
    pauli_channel,
    qdet_from_statistics,
    reduced_system_state,
    shannon_entropy,
    t_vector,
    threshold_fidelity,
)
from qcapdet.certify import FAMILIES
from qcapdet.errors import DegenerateMeasurementError, DimensionMismatchError, InternalConsistencyError, InvalidStateError
from qcapdet.linalg import (
    MAX_FLOAT_DIMENSION,
    PINV_CUTOFF,
    binary_entropy,
    double_ket,
    hermitian_eigen,
    matrix_sqrt,
    pseudo_inverse,
)
from randinst import (
    decompositions,
    random_channel,
    random_density,
    random_povm,
    random_probe,
    random_terms,
    random_unitary,
)


def measurement_diagnostics(probe, terms, ch, povm):
    """Conditional-outcome diagnostic.

    Returns (r, t, cond) where cond[i, j] is the outcome-i probability
    conditioned on the j-th spectral component of the purified channel
    output, r_i sums cond over components, and t is the outcome weight
    vector.  Componentwise r <= t, and the spectral mixture of cond
    reproduces the outcome distribution.  ``terms`` is a decomposition
    (a_l, A_l) of the probe's sigma.
    """
    detector = Detector(probe, povm)
    root = matrix_sqrt(detector.rho.T)
    psi = double_ket(root)
    joint = apply_extended_channel(ch, np.outer(psi, psi.conj()), probe.d)
    root_inv = pseudo_inverse(root)
    evals, evecs = hermitian_eigen(joint)
    keep = evals > PINV_CUTOFF * max(evals.max(), 0.0)
    basis = evecs[:, keep]
    eye_out = np.eye(ch.dim_out)
    cond = np.zeros((len(povm), int(keep.sum())))
    for i, element in enumerate(povm.elements):
        m = np.zeros_like(element)
        for a, op in zip(*terms):
            side = np.kron(op @ root_inv, eye_out)
            m += a * (side.conj().T @ element @ side)
        cond[i, :] = np.einsum("sj,st,tj->j", basis.conj(), m, basis).real
    return cond.sum(axis=1), detector.t, cond


IDENTITY_QUBIT = pauli_channel(np.array([[1.0, 0.0], [0.0, 0.0]]))


class TestEntropyExchange:
    def test_identity_channel_stays_pure(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            rho = random_density(rng, 2)
            assert entropy_exchange(rho, IDENTITY_QUBIT) == pytest.approx(0.0, abs=1e-9)

    def test_completely_depolarizing(self):
        ch = pauli_channel(np.full((2, 2), 0.25))
        assert entropy_exchange(np.eye(2) / 2, ch) == pytest.approx(2.0, abs=1e-10)

    def test_erasure_on_maximally_mixed(self):
        # spectral oracle: weights (1-p) on the kept pure state, p/d on each flag branch
        for d in (2, 3):
            for p in (0.15, 0.4):
                got = entropy_exchange(np.eye(d) / d, erasure_channel(d, p))
                spectrum = np.array([1 - p] + [p / d] * d)
                expected = float(-np.sum(spectrum * np.log2(spectrum)))
                assert got == pytest.approx(expected, abs=1e-10)
                assert got == pytest.approx(binary_entropy(p) + p * math.log2(d), abs=1e-10)

    def test_purification_invariance(self):
        rng = np.random.default_rng(62)
        rho = random_density(rng, 3)
        ch = random_channel(rng, 3, 3)
        base = entropy_exchange(rho, ch)
        for _ in range(20):
            v = random_unitary(rng, 3)
            assert entropy_exchange(rho, ch, purification=v) == pytest.approx(base, abs=1e-9)

    @pytest.mark.parametrize(
        "rho, purification, error, message",
        [
            (np.eye(3) / 3, None, DimensionMismatchError, "state dim 3 != channel input dim 2"),
            (np.eye(2) / 2, np.eye(3), DimensionMismatchError, "purification unitary shape (3, 3) != (2, 2)"),
            (np.eye(2) / 2, 2.0 * np.eye(2), InvalidStateError, "purification rotation is not unitary"),
        ],
        ids=["state dim", "purification shape", "not unitary"],
    )
    def test_rejects_a_mismatched_state_or_purification(self, rho, purification, error, message):
        with pytest.raises(error) as raised:
            entropy_exchange(rho, IDENTITY_QUBIT, purification)
        assert type(raised.value) is error and str(raised.value) == message


class TestCoherentInformation:
    def test_identity_on_maximally_mixed(self):
        for d in (2, 3):
            ch = pauli_channel(_delta_grid(d))
            assert coherent_information(np.eye(d) / d, ch) == pytest.approx(
                math.log2(d), abs=1e-9
            )

    def test_erasure_exact_values(self):
        assert coherent_information(np.eye(2) / 2, erasure_channel(2, 0.5)) == pytest.approx(
            0.0, abs=1e-9
        )
        assert coherent_information(np.eye(2) / 2, erasure_channel(2, 0.2)) == pytest.approx(
            0.6, abs=1e-9
        )

    def test_erasure_matches_linear_law(self):
        for p in (0.0, 0.1, 0.25, 0.4):
            got = coherent_information(np.eye(2) / 2, erasure_channel(2, p))
            assert got == pytest.approx(1 - 2 * p, abs=1e-9)


def _delta_grid(d):
    g = np.zeros((d, d))
    g[0, 0] = 1.0
    return g


class TestQdetFromStatistics:
    def test_deterministic_outcome(self):
        assert qdet_from_statistics([1.0, 0, 0, 0], [1.0, 1, 1, 1], 1.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_constant_weights_shift_by_log(self):
        rng = np.random.default_rng(63)
        p = rng.random(5)
        p /= p.sum()
        for k in (0.5, 1.0, 2.0):
            got = qdet_from_statistics(p, np.full(5, k), 1.3)
            assert got == pytest.approx(1.3 - shannon_entropy(p) - math.log2(k), abs=1e-12)

    def test_hashing_inputs(self):
        for p_noise in (0.05, 0.1892, 0.3):
            tail = np.full(4, p_noise / 3)
            tail[0] = 1 - p_noise
            got = qdet_from_statistics(tail, np.ones(4), 1.0)
            assert got == pytest.approx(hashing_bound(2, p_noise), abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMeasurementError):
            qdet_from_statistics([1.0, 0.0], [0.0, 1.0], 1.0)


class TestClosedForms:
    def test_hashing_endpoints(self):
        assert hashing_bound(2, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert hashing_bound(2, 0.25) == pytest.approx(-0.20751874963942191, abs=1e-12)
        assert abs(hashing_bound(2, 0.1892)) < 1e-3

    def test_depolarizing_isotropic_reduces_to_hashing(self):
        for p in (0.0, 0.08, 0.2):
            assert depolarizing_isotropic_qdet(2, p, 1.0) == pytest.approx(
                hashing_bound(2, p), abs=1e-12
            )

    def test_depolarizing_isotropic_values(self):
        # effective error weight 0.56/3 at (p, F) = (0.1, 0.9)
        assert depolarizing_isotropic_qdet(2, 0.1, 0.9) == pytest.approx(
            0.0096942627047369072, abs=1e-12
        )
        assert depolarizing_isotropic_qdet(2, 0.0, 0.9) == pytest.approx(
            1 - binary_entropy(0.1) - 0.1 * math.log2(3), abs=1e-12
        )

    def test_erasure_closed_form_values(self):
        assert erasure_qdet_closed_form(2, 0.2, 1.0) == pytest.approx(0.6, abs=1e-12)
        assert erasure_qdet_closed_form(2, 0.0, 0.95) == pytest.approx(
            0.63435491784798606, abs=1e-12
        )

    def test_erasure_exact_capacity(self):
        assert erasure_exact_capacity(2, 0.25) == pytest.approx(0.5, abs=1e-15)
        assert erasure_exact_capacity(2, 0.5) == 0.0
        assert erasure_exact_capacity(2, 0.8) == 0.0
        assert erasure_exact_capacity(4, 0.0) == pytest.approx(2.0, abs=1e-15)

    def test_domains(self):
        with pytest.raises(ValueError):
            hashing_bound(2, 1.2)
        with pytest.raises(ValueError):
            depolarizing_isotropic_qdet(2, 0.1, 0.1)
        with pytest.raises(ValueError):
            erasure_qdet_closed_form(2, -0.1, 0.9)
        with pytest.raises(ValueError):
            erasure_exact_capacity(2, 1.5)

    @pytest.mark.parametrize(
        "closed_form",
        [
            lambda d: hashing_bound(d, 0.1),
            lambda d: depolarizing_isotropic_qdet(d, 0.1, 1.0),
            lambda d: erasure_qdet_closed_form(d, 0.1, 1.0),
            lambda d: erasure_exact_capacity(d, 0.1),
        ],
    )
    @pytest.mark.parametrize("d", [1, 0, -3])
    def test_dimension_below_two(self, closed_form, d):
        with pytest.raises(ValueError, match=rf"^dimension {d} must be at least 2$"):
            closed_form(d)


# Every public function that checks a family parameter: its call from
# (d, p, F), whether it checks d, the name its messages give p (None if it
# takes no p), and whether it checks F.
FAMILY_PARAMETER_SITES = {
    "depolarizing_channel": (lambda d, p, f: depolarizing_channel(d, p), True, "depolarizing strength", False),
    "erasure_channel": (lambda d, p, f: erasure_channel(d, p), True, "erasure probability", False),
    "max_entangled_probe": (lambda d, p, f: max_entangled_probe(d), True, None, False),
    "isotropic_probe": (lambda d, p, f: isotropic_probe(d, f), True, None, True),
    "bell_povm": (lambda d, p, f: bell_povm(d), True, None, False),
    "erasure_povm": (lambda d, p, f: erasure_povm(d), True, None, False),
    "hashing_bound": (lambda d, p, f: hashing_bound(d, p), True, "depolarizing strength", False),
    "depolarizing_isotropic_qdet": (depolarizing_isotropic_qdet, True, "depolarizing strength", True),
    "erasure_qdet_closed_form": (erasure_qdet_closed_form, True, "erasure probability", True),
    "erasure_exact_capacity": (lambda d, p, f: erasure_exact_capacity(d, p), True, "erasure probability", False),
    "threshold_fidelity": (lambda d, p, f: threshold_fidelity("depolarizing", d), True, None, False),
    "binary_entropy": (lambda d, p, f: binary_entropy(p), False, "binary entropy argument", False),
}


def _family_parameter_cases():
    """(site, (d, p, F), message) for each bad value a site refuses; one bad
    value per case, then several at once, where the first checked is named."""
    below = np.nextafter(0.25, 0.0)  # just below 1/d^2 at d = 2
    for site, (_, dimension, noise, fidelity) in FAMILY_PARAMETER_SITES.items():
        if dimension:
            yield site, (1, 0.1, 1.0), "dimension 1 must be at least 2"
            yield site, (math.nan, 0.1, 1.0), "dimension nan must be at least 2"
            yield site, (2.5, 0.1, 1.0), "dimension 2.5 must be an integer"
            yield site, (math.inf, 0.1, 1.0), "dimension inf must be an integer"
        if noise:
            yield site, (2, 1.5, 1.0), f"{noise} 1.5 outside [0, 1]"
            yield site, (2, math.nan, 1.0), f"{noise} nan outside [0, 1]"
        if fidelity:
            yield site, (2, 0.1, below), "fidelity 0.24999999999999997 outside [0.25, 1]"
        if dimension and (noise or fidelity):
            yield site, (1, 1.5, 0.0), "dimension 1 must be at least 2"
        if noise and fidelity:
            yield site, (2, 1.5, 0.0), f"{noise} 1.5 outside [0, 1]"


@pytest.mark.parametrize(
    "site, args, message", [pytest.param(*case, id=f"{case[0]}-{case[1]}") for case in _family_parameter_cases()]
)
def test_family_parameter_rules_keep_their_messages(site, args, message):
    with pytest.raises(Exception) as info:
        FAMILY_PARAMETER_SITES[site][0](*args)
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("site", [site for site, (_, dimension, *_) in FAMILY_PARAMETER_SITES.items() if dimension])
@pytest.mark.parametrize("d", [10**200, MAX_FLOAT_DIMENSION + 1, 1e200])
def test_dimension_whose_square_exceeds_the_largest_float(site, d):
    # refused before d^2 can overflow a float, or any array is sized by d
    with pytest.raises(Exception) as info:
        FAMILY_PARAMETER_SITES[site][0](d, 0.1, 0.5)
    assert type(info.value) is ValueError
    assert str(info.value) == f"dimension {d} too large: its square exceeds the largest float"


@pytest.mark.parametrize(
    "closed_form",
    [
        "depolarizing_isotropic_qdet",
        "erasure_qdet_closed_form",
        "hashing_bound",
        "erasure_exact_capacity",
        "threshold_fidelity",
    ],
)
def test_largest_float_dimension_gives_a_finite_value(closed_form):
    assert math.isfinite(FAMILY_PARAMETER_SITES[closed_form][0](MAX_FLOAT_DIMENSION, 0.1, 0.5))


class TestPipelineAgainstClosedForms:
    def test_hashing_grid(self):
        probe = max_entangled_probe(2)
        povm = bell_povm(2)
        for p in np.linspace(0.0, 0.3, 21):
            got = certify(probe, depolarizing_channel(2, float(p)), povm).qdet
            assert abs(got - hashing_bound(2, float(p))) < 1e-10

    def test_depolarizing_isotropic_grid(self):
        povm = bell_povm(2)
        for fid in (0.98, 0.95, 0.9):
            probe = isotropic_probe(2, fid)
            for p in np.linspace(0.0, 0.25, 11):
                got = certify(probe, depolarizing_channel(2, float(p)), povm).qdet
                assert abs(got - depolarizing_isotropic_qdet(2, float(p), fid)) < 1e-10

    def test_erasure_grid(self):
        povm = erasure_povm(2)
        for fid in (1.0, 0.95, 0.9):
            probe = isotropic_probe(2, fid)
            for p in np.linspace(0.0, 0.5, 11):
                got = certify(probe, erasure_channel(2, float(p)), povm).qdet
                assert abs(got - erasure_qdet_closed_form(2, float(p), fid)) < 1e-10


class TestBoundChain:
    def test_random_ensemble(self):
        rng = np.random.default_rng(64)
        for trial in range(60):
            d = int(rng.integers(2, 4))
            erase = trial % 5 == 0
            ch = (
                erasure_channel(d, float(rng.uniform(0, 1)))
                if erase
                else random_channel(rng, d)
            )
            rank = int(rng.integers(1, d + 1)) if trial % 4 == 0 else None
            probe = random_probe(rng, d, rank=rank)
            povm = random_povm(rng, d * ch.dim_out)
            result = certify(probe, ch, povm)
            rho = reduced_system_state(probe)
            oracle = coherent_information(rho, ch)
            assert result.qdet <= oracle + 1e-9
            # Jensen step: entropy exchange bounded by outcome statistics
            se = entropy_exchange(rho, ch)
            p = outcome_probabilities(probe, ch, povm)
            t = t_vector(probe, povm)
            assert se - shannon_entropy(p) <= math.log2(float(t @ p)) + 1e-9
            assert se <= shannon_entropy(p) + math.log2(float(t @ p)) + 1e-9

    def test_result_identities(self):
        rng = np.random.default_rng(65)
        for _ in range(10):
            d = int(rng.integers(2, 4))
            probe = random_probe(rng, d)
            ch = random_channel(rng, d)
            result = certify(probe, ch, random_povm(rng, d * ch.dim_out))
            assert result.qdet == pytest.approx(
                result.output_entropy - result.prob_entropy - result.log_tp, abs=1e-12
            )
            assert result.private_lower == result.qdet
            assert result.ea_classical_lower == pytest.approx(
                result.input_entropy + result.qdet, abs=1e-12
            )


class TestDiagnostics:
    def test_row_sums_below_weights(self):
        from qcapdet.linalg import matrix_sqrt

        rng = np.random.default_rng(66)
        rotations = np.random.default_rng(166)
        for _ in range(20):
            d = int(rng.integers(2, 4))
            terms = random_terms(rng, d)
            probe = custom_probe(*terms)
            ch = random_channel(rng, d)
            povm = random_povm(rng, d * ch.dim_out)
            r, t, cond = measurement_diagnostics(probe, terms, ch, povm)
            assert np.all(r <= t + 1e-9)
            # the conditionals depend on sigma alone, not on its decomposition
            for other in decompositions(rotations, terms, probe.sigma)[1:]:
                assert np.max(np.abs(measurement_diagnostics(probe, other, ch, povm)[2] - cond)) < 1e-12
            # mixing the conditionals with the output spectrum recovers p
            rho = reduced_system_state(probe)
            p = outcome_probabilities(probe, ch, povm)
            psi = double_ket(matrix_sqrt(rho.T))
            joint = apply_extended_channel(ch, np.outer(psi, psi.conj()), d)
            evals = hermitian_eigen(joint).eigenvalues
            evals = evals[evals > 1e-12 * evals.max()]
            mixed = cond @ evals
            assert np.max(np.abs(mixed - p)) < 1e-9


class TestOptimizer:
    def test_never_below_raw(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            d = 2
            ch = random_channel(rng, d)
            probe = random_probe(rng, d)
            povm = random_povm(rng, d * d, n_elements=int(rng.integers(2, 6)))
            raw = certify(probe, ch, povm, optimize=False)
            best = certify(probe, ch, povm, optimize=True)
            assert best.qdet >= raw.qdet - 1e-12

    def test_greedy_path_used_for_large_povms(self):
        rng = np.random.default_rng(68)
        d = 2
        probe = random_probe(rng, d)
        ch = random_channel(rng, d)
        povm = random_povm(rng, d * d, n_elements=8)
        raw = certify(probe, ch, povm, optimize=False)
        best = certify(probe, ch, povm, optimize=True)
        assert best.qdet >= raw.qdet - 1e-12

    def test_hashing_setup_keeps_trivial_grouping(self):
        # merging Bell outcomes only loses information here
        probe = max_entangled_probe(2)
        result = certify(probe, depolarizing_channel(2, 0.1), bell_povm(2), optimize=True)
        assert result.qdet == pytest.approx(hashing_bound(2, 0.1), abs=1e-10)


class TestThreshold:
    def test_erasure_band(self):
        got = threshold_fidelity("erasure", 2)
        assert 0.810 <= got <= 0.812

    def test_depolarizing_band(self):
        got = threshold_fidelity("depolarizing", 2)
        assert 0.805 <= got <= 0.825

    def test_positive_at_perfect_fidelity(self):
        assert depolarizing_isotropic_qdet(2, 0.0, 1.0) > 0
        assert erasure_qdet_closed_form(2, 0.0, 1.0) > 0
        assert threshold_fidelity("erasure", 2) < 1.0

    def test_unsupported_family(self):
        with pytest.raises(ValueError):
            threshold_fidelity("amplitude_damping", 2)

    def test_bound_positive_at_minimal_fidelity_is_refused(self, monkeypatch):
        # no closed form in FAMILIES is positive at F = 1/d^2, so only a
        # replaced one reaches the guard: such a family has no threshold
        monkeypatch.setitem(FAMILIES, "erasure", FAMILIES["erasure"]._replace(closed_form=lambda d, p, fidelity: 1.0))
        with pytest.raises(InternalConsistencyError, match="^detected bound positive even at minimal fidelity$"):
            threshold_fidelity("erasure", 2)

    # Roots written from the grid plus golden-section search over p that the
    # threshold used before it took the endpoint maximum; never regenerated.
    # Both families share one root at every d (see README).
    PINNED = {
        2: 0.8107097148895264,
        3: 0.7448111640082467,
        4: 0.7103303670883179,
        5: 0.6887060546875,
        6: 0.673671325047811,
        7: 0.6624955157844387,
        8: 0.6537945419549942,
        9: 0.6467816388165508,
        10: 0.6409813022613526,
        11: 0.6360816640302169,
        12: 0.631872528129154,
        13: 0.6282077315291004,
        14: 0.6249786445072719,
        15: 0.6221055772569446,
        16: 0.6195273660123348,
    }

    @pytest.mark.parametrize("family", ["depolarizing", "erasure"])
    @pytest.mark.parametrize("d", sorted(PINNED))
    def test_pinned_roots(self, family, d):
        assert threshold_fidelity(family, d) == self.PINNED[d]

    @pytest.mark.parametrize("closed", [depolarizing_isotropic_qdet, erasure_qdet_closed_form])
    @pytest.mark.parametrize("d", [2, 3, 4, 8, 16])
    def test_noise_maximum_sits_at_an_endpoint(self, closed, d):
        # both closed forms are convex in p, so no interior p beats p = 0 or p = 1
        for fidelity in np.linspace(1.0 / d**2, 1.0, 25):
            ends = max(closed(d, 0.0, fidelity), closed(d, 1.0, fidelity))
            grid = max(closed(d, p, fidelity) for p in np.linspace(0.0, 1.0, 401))
            assert grid <= ends + 1e-12
