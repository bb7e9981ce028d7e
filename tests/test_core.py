"""Core engine: probabilities, conditioning, correlation, screening, LTP."""

import math

import numpy as np
import pytest

from ccslab.core import (
    CommutationClass,
    CorrelationClass,
    DensityState,
    DimensionMismatchError,
    EventPair,
    NotACCSError,
    Partition,
    PreconditionError,
    ProjectionEvent,
    PureState,
    Tolerance,
    ValidationError,
    ZeroProbabilityError,
    _check_density,
    commutation_class,
    complement,
    check_lemma_wcomm,
    conditional_correlation,
    conditional_expectation,
    conditional_probability,
    conditional_state,
    correlation,
    correlation_class,
    is_ccs,
    is_deterministic_ccs,
    probability,
    satisfies_ltp,
)
from ccslab.classify import CertificateKind, classify
from ccslab.families import (
    Family,
    FamilyParams,
    TrivialityLevel,
    associated_state,
    generate,
    rotated_product_vectors,
)
from ccslab.sampling import (
    SamplerConfig,
    ginibre_state,
    haar_pure_state,
    haar_unitary,
    random_atomic_partition,
    random_commuting_pair,
    random_diagonal_pattern,
    rng_for,
)
from ccslab.twoqubit import basis_ket, conditional_probs_canonical, perfect_correlation_state


def random_projection(dim, rng):
    u = haar_unitary(dim, rng)
    rank = int(rng.integers(1, dim))
    block = u[:, :rank]
    return ProjectionEvent(block @ block.conj().T)


# ---------------------------------------------------------------------------
# complement / probability
# ---------------------------------------------------------------------------

def test_complement_identity_is_zero():
    zero = complement(ProjectionEvent.identity(3))
    assert np.allclose(zero.op, 0.0)


def test_complement_of_basis_projection():
    p0 = ProjectionEvent.from_vector([1.0, 0.0])
    assert np.allclose(complement(p0).op, np.diag([0.0, 1.0]))


def test_double_complement_is_identity_map():
    for i in range(20):
        rng = rng_for(11, i)
        p = random_projection(int(rng.integers(2, 6)), rng)
        assert np.allclose(complement(complement(p)).op, p.op, atol=1e-12)


def test_probability_uniform_state_half_rank(max_mixed, pair):
    assert probability(max_mixed, pair.a) == pytest.approx(0.5, abs=1e-12)


def test_probability_bell_joint_event(bell_state, pair):
    ab = ProjectionEvent(pair.products()[0])
    assert probability(bell_state, ab) == pytest.approx(0.5, abs=1e-12)


def test_probability_matches_spectral_oracle():
    # oracle: phi(X) = sum_i lambda_i <v_i|X|v_i> over the eigendecomposition
    for i in range(30):
        rng = rng_for(12, i)
        dim = int(rng.integers(2, 6))
        state = ginibre_state(dim, rng)
        x = random_projection(dim, rng)
        evals, evecs = np.linalg.eigh(state.rho)
        oracle = sum(
            lam * float(np.real(evecs[:, k].conj() @ x.op @ evecs[:, k]))
            for k, lam in enumerate(evals)
        )
        assert probability(state, x) == pytest.approx(oracle, abs=1e-10)


def test_probability_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        probability(DensityState.maximally_mixed(2), ProjectionEvent.identity(3))


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------

def test_conditional_state_atomic_condition_on_pure_state():
    rng = rng_for(13)
    psi = haar_pure_state(4, rng)
    gamma = haar_pure_state(4, rng)
    if abs(np.vdot(gamma.psi, psi.psi)) < 1e-3:  # astronomically unlikely with this seed
        pytest.skip("orthogonal draw")
    cond = ProjectionEvent.from_vector(gamma.psi)
    out = conditional_state(psi, cond)
    assert np.allclose(out.rho, np.outer(gamma.psi, gamma.psi.conj()), atol=1e-10)


def test_conditional_state_uniform_restriction():
    rng = rng_for(14)
    c = random_projection(5, rng)
    out = conditional_state(DensityState.maximally_mixed(5), c)
    assert np.allclose(out.rho, c.op / c.rank, atol=1e-12)


def test_conditional_state_rank_two_condition_on_bell(bell_state):
    inst = generate(Family.CCS22ntrat, FamilyParams(theta=math.pi / 3))
    out = conditional_state(bell_state, inst.partition.elements[0])
    expected = np.outer(basis_ket(0, 0), basis_ket(0, 0).conj())
    assert np.allclose(out.rho, expected, atol=1e-12)


def test_conditional_state_zero_probability_rejected(bell_state):
    inst = generate(Family.CCSntrat, FamilyParams(theta=math.pi / 3))
    with pytest.raises(ZeroProbabilityError):
        conditional_state(bell_state, inst.partition.elements[1])


def test_conditional_probability_on_itself(full_support_state):
    rng = rng_for(15)
    c = random_projection(4, rng)
    assert conditional_probability(full_support_state, c, c) == pytest.approx(1.0, abs=1e-12)


def test_conditional_probability_rotated_family_table(full_support_state, pair):
    theta = 1.1
    c2 = math.cos(theta / 2.0) ** 2
    s2 = math.sin(theta / 2.0) ** 2
    inst = generate(Family.CCSclassU, FamilyParams(theta=theta))
    got = [conditional_probability(full_support_state, pair.a, c) for c in inst.partition]
    assert got == pytest.approx([c2, c2, s2, s2], abs=1e-12)


def test_conditional_probability_bell_family_is_unbiased(full_support_state, pair):
    inst = generate(Family.CCSBell, FamilyParams(theta=0.9))
    for c in inst.partition:
        assert conditional_probability(full_support_state, pair.b, c) == pytest.approx(
            0.5, abs=1e-12
        )


# ---------------------------------------------------------------------------
# conditional expectation (pinching)
# ---------------------------------------------------------------------------

def test_pinching_by_trivial_partition_is_identity():
    rng = rng_for(16)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    out = conditional_expectation(Partition((ProjectionEvent.identity(4),)), x)
    assert np.allclose(out, x)


def test_pinching_by_basis_partition_keeps_diagonal():
    rng = rng_for(17)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    basis = Partition.from_vectors(list(np.eye(4)))
    assert np.allclose(conditional_expectation(basis, x), np.diag(np.diag(x)))


def test_pinching_is_idempotent_and_trace_preserving():
    for i in range(15):
        rng = rng_for(18, i)
        dim = int(rng.integers(2, 6))
        partition = random_atomic_partition(dim, rng)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        once = conditional_expectation(partition, x)
        twice = conditional_expectation(partition, once)
        assert np.allclose(once, twice, atol=1e-10)
        assert np.trace(once) == pytest.approx(np.trace(x), abs=1e-10)


# ---------------------------------------------------------------------------
# correlation
# ---------------------------------------------------------------------------

def test_product_state_is_uncorrelated(pair):
    rng = rng_for(19)
    rho1 = ginibre_state(2, rng).rho
    rho2 = ginibre_state(2, rng).rho
    state = DensityState(np.kron(rho1, rho2))
    orig, bal = correlation(state, pair)
    assert orig == pytest.approx(0.0, abs=1e-12)
    assert bal == pytest.approx(0.0, abs=1e-12)


def test_bell_state_correlation_is_maximal_value(bell_state, pair):
    orig, bal = correlation(bell_state, pair)
    assert orig == pytest.approx(0.25, abs=1e-12)
    assert bal == pytest.approx(0.25, abs=1e-12)


def test_symmetric_state_correlation_formula(pair):
    for i in range(10):
        rng = rng_for(20, i)
        a = math.sqrt(rng.random())
        b = math.sqrt(1.0 - a * a) * np.exp(1j * rng.random())
        state = associated_state(Family.CLTP, FamilyParams(a=a, b=b))
        orig, bal = correlation(state, pair)
        expected = (abs(a) ** 2 - abs(b) ** 2) / 4.0
        assert orig == pytest.approx(expected, abs=1e-12)
        assert bal == pytest.approx(expected, abs=1e-12)


def test_conditioning_on_identity_reproduces_correlation(full_support_state, pair):
    whole = ProjectionEvent.identity(4)
    assert conditional_correlation(full_support_state, pair, whole) == pytest.approx(
        correlation(full_support_state, pair), abs=1e-12
    )


def test_conditional_correlation_of_nonscreening_atom(full_support_state, pair):
    # the antidiagonal atom has screening defect exactly -1/4
    inst = generate(Family.CLTP)
    orig, bal = conditional_correlation(full_support_state, pair, inst.partition.elements[1])
    assert orig == pytest.approx(-0.25, abs=1e-12)
    assert bal == pytest.approx(-0.25, abs=1e-12)


def test_conditional_correlation_matches_determinant_oracle(pair):
    from ccslab.twoqubit import screening_determinant

    for i in range(25):
        rng = rng_for(21, i)
        state = haar_pure_state(4, rng)
        gamma = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        gamma /= np.linalg.norm(gamma)
        cond = ProjectionEvent.from_vector(gamma)
        if probability(state, cond) < 1e-6:
            continue
        orig, bal = conditional_correlation(state, pair, cond)
        det = screening_determinant(gamma)
        assert orig == pytest.approx(det, abs=1e-10)
        assert bal == pytest.approx(det, abs=1e-10)


# ---------------------------------------------------------------------------
# screening-off
# ---------------------------------------------------------------------------

def test_complement_partition_screens_any_pair_any_state():
    for i in range(15):
        rng = rng_for(22, i)
        dim = int(rng.integers(2, 4)) * 2
        ep = random_commuting_pair(dim, rng)
        partition = Partition((ep.a, complement(ep.a)))
        state = ginibre_state(dim, rng)
        assert is_ccs(state, partition, ep).holds


def test_nonscreening_partition_detected(full_support_state, pair):
    inst = generate(Family.CLTP)
    report = is_ccs(full_support_state, inst.partition, pair)
    assert not report.holds
    assert report.zero_probability_elements == ()


def test_zero_probability_elements_impose_no_condition(bell_state, pair):
    inst = generate(Family.CCSntrat, FamilyParams(theta=math.pi / 3))
    report = is_ccs(bell_state, inst.partition, pair)
    assert report.holds
    assert report.zero_probability_elements == (1, 2)
    assert report.conditional_deltas[1] is None


def test_screening_forms_agree_as_predicates(pair):
    # balanced and original conditional-correlation forms give the same verdict
    checked = 0
    for i in range(1000):
        rng = rng_for(23, i)
        partition = random_atomic_partition(4, rng)
        state = ginibre_state(4, rng) if i % 2 else haar_pure_state(4, rng).density()
        ep = random_commuting_pair(4, rng) if i % 3 == 0 else pair
        report = is_ccs(state, partition, ep)
        for deltas in report.conditional_deltas:
            if deltas is None:
                continue
            orig, bal = deltas
            assert (abs(orig) <= 1e-9) == (abs(bal) <= 1e-9)
            assert orig == pytest.approx(bal, abs=1e-9)
            checked += 1
    assert checked >= 1000


def test_screening_forms_agree_on_screening_instances(bell_state, pair):
    inst = generate(Family.CCShyper, FamilyParams(xi=1.3, zeta=-0.4))
    report = is_ccs(bell_state, inst.partition, pair)
    assert report.holds
    for deltas in report.conditional_deltas:
        if deltas is not None:
            assert abs(deltas[0]) <= 1e-9 and abs(deltas[1]) <= 1e-9


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_basis_partition_is_deterministic(full_support_state, pair):
    inst = generate(Family.CCSclass)
    assert is_deterministic_ccs(full_support_state, inst.partition, pair)


def test_rotated_basis_partition_is_maximally_indeterministic(full_support_state, pair):
    inst = generate(Family.CCSGabor)
    assert not is_deterministic_ccs(full_support_state, inst.partition, pair)
    for c in inst.partition:
        assert conditional_probability(full_support_state, pair.a, c) == pytest.approx(
            0.5, abs=1e-12
        )


def test_rank_two_partition_deterministic_on_bell(bell_state, pair):
    inst = generate(Family.CCS22ntrat, FamilyParams(theta=2.0))
    assert is_deterministic_ccs(bell_state, inst.partition, pair)
    assert conditional_probability(bell_state, pair.a, inst.partition.elements[0]) == (
        pytest.approx(1.0, abs=1e-12)
    )
    assert conditional_probability(bell_state, pair.a, inst.partition.elements[1]) == (
        pytest.approx(0.0, abs=1e-12)
    )


def test_determinism_requires_screening(full_support_state, pair):
    inst = generate(Family.CLTP)
    with pytest.raises(NotACCSError):
        is_deterministic_ccs(full_support_state, inst.partition, pair)


# ---------------------------------------------------------------------------
# commutation classes and the zero-probability-block lemma
# ---------------------------------------------------------------------------

def test_commutation_class_of_basis_partition(pair):
    inst = generate(Family.CCSclass)
    assert commutation_class(inst.partition, pair) is CommutationClass.COMMUTING


def test_weak_commutation_needs_the_state(bell_state, pair):
    inst = generate(Family.CCSntrat, FamilyParams(theta=math.pi / 3))
    assert commutation_class(inst.partition, pair) is CommutationClass.NONCOMMUTING
    assert (
        commutation_class(inst.partition, pair, bell_state)
        is CommutationClass.WEAKLY_COMMUTING
    )


def test_noncommuting_with_nonzero_probability(bell_state, pair):
    inst = generate(Family.CCSBell, FamilyParams(theta=math.pi / 3))
    assert (
        commutation_class(inst.partition, pair, bell_state) is CommutationClass.NONCOMMUTING
    )


def test_zero_probability_block_lemma_commuting_case(full_support_state, pair):
    inst = generate(Family.CCSclass)
    assert check_lemma_wcomm(full_support_state, inst.partition, pair)


def test_zero_probability_block_lemma_weakly_commuting_case(bell_state, pair):
    inst = generate(Family.CCSntrat, FamilyParams(theta=math.pi / 3))
    assert check_lemma_wcomm(bell_state, inst.partition, pair)


def test_zero_probability_block_lemma_complex_family(pair):
    params = FamilyParams(c=0.6 * np.exp(0.3j), s=0.8 * np.exp(-1.1j), r1=0.2, r2=0.5, r3=-0.4)
    inst = generate(Family.CCSntratC, params)
    state = associated_state(Family.CCSntratC, params)
    assert check_lemma_wcomm(state, inst.partition, pair)


def test_zero_probability_block_lemma_precondition(bell_state, pair):
    inst = generate(Family.CCSntratU, FamilyParams(theta=math.pi / 3))
    with pytest.raises(PreconditionError):
        check_lemma_wcomm(bell_state, inst.partition, pair)


# ---------------------------------------------------------------------------
# law of total probability
# ---------------------------------------------------------------------------

def test_ltp_holds_for_basis_partition_any_state(pair):
    inst = generate(Family.CCSclass)
    for i in range(10):
        state = ginibre_state(4, rng_for(24, i))
        assert satisfies_ltp(state, inst.partition, pair).holds


def test_ltp_holds_for_nonscreening_partition_with_its_state(pair):
    inst = generate(Family.CLTP)
    state = associated_state(Family.CLTP, FamilyParams(a=0.3, b=math.sqrt(1 - 0.09) * 1j))
    assert satisfies_ltp(state, inst.partition, pair).holds


def test_ltp_fails_for_rotated_family_on_bell(bell_state, pair):
    inst = generate(Family.CCSntratU, FamilyParams(theta=math.pi / 3))
    report = satisfies_ltp(bell_state, inst.partition, pair)
    assert not report.holds
    assert max(abs(r) for r in report.residuals) > 1e-3


# ---------------------------------------------------------------------------
# correlation classes
# ---------------------------------------------------------------------------

def test_bell_state_is_maximally_correlated(bell_state, pair):
    assert correlation_class(bell_state, pair) is CorrelationClass.MAXIMALLY_CORRELATED


def test_unbalanced_perfect_correlation(pair):
    from ccslab.twoqubit import perfect_correlation_pure

    state = perfect_correlation_pure(math.sqrt(0.9), math.sqrt(0.1))
    assert correlation_class(state, pair) is CorrelationClass.PERFECTLY_CORRELATED
    orig, bal = correlation(state, pair)
    assert orig == pytest.approx(0.09, abs=1e-12)


def test_product_state_is_uncorrelated_class(pair):
    rng = rng_for(25)
    state = DensityState(np.kron(ginibre_state(2, rng).rho, ginibre_state(2, rng).rho))
    assert correlation_class(state, pair) is CorrelationClass.UNCORRELATED


def test_anticorrelated_twin_classes(pair):
    twin = PureState((basis_ket(0, 1) + basis_ket(1, 0)) / math.sqrt(2.0))
    assert correlation_class(twin, pair) is CorrelationClass.MAXIMALLY_ANTICORRELATED
    skewed = PureState(math.sqrt(0.8) * basis_ket(0, 1) + math.sqrt(0.2) * basis_ket(1, 0))
    assert correlation_class(skewed, pair) is CorrelationClass.PERFECTLY_ANTICORRELATED


def test_correlation_bound_on_random_draws(pair):
    for i in range(200):
        rng = rng_for(26, i)
        state = ginibre_state(4, rng) if i % 2 else haar_pure_state(4, rng)
        ep = random_commuting_pair(4, rng) if i % 3 == 0 else pair
        orig, bal = correlation(state, ep)
        assert -0.25 - 1e-9 <= orig <= 0.25 + 1e-9
        assert orig == pytest.approx(bal, abs=1e-12)


# ---------------------------------------------------------------------------
# classical embedding
# ---------------------------------------------------------------------------

def test_classical_embedding_screens_and_obeys_ltp():
    for i in range(25):
        rng = rng_for(27, i)
        dim = int(rng.integers(3, 7))
        basis = Partition.from_vectors(list(np.eye(dim)))
        da = random_diagonal_pattern(dim, rng)
        db = random_diagonal_pattern(dim, rng)
        ep = EventPair(ProjectionEvent.diagonal(da), ProjectionEvent.diagonal(db))
        state = ginibre_state(dim, rng)
        assert is_ccs(state, basis, ep).holds
        assert satisfies_ltp(state, basis, ep).holds
        # pinching in the same basis preserves every diagonal expectation
        pinched = conditional_expectation(basis, state.rho)
        x = ProjectionEvent.diagonal(random_diagonal_pattern(dim, rng))
        assert np.trace(pinched @ x.op).real == pytest.approx(
            np.trace(state.rho @ x.op).real, abs=1e-12
        )


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_projection_validation_rejects_nonidempotent():
    with pytest.raises(ValidationError):
        ProjectionEvent(np.diag([0.5, 0.5]))


def test_projection_validation_rejects_nonhermitian():
    with pytest.raises(ValidationError):
        ProjectionEvent(np.array([[1.0, 0.5], [0.0, 0.0]]))


def test_partition_validation_rejects_incomplete():
    p0 = ProjectionEvent.from_vector([1.0, 0.0, 0.0])
    with pytest.raises(ValidationError):
        Partition((p0,))


def test_partition_validation_rejects_nonorthogonal():
    p0 = ProjectionEvent.from_vector([1.0, 0.0])
    with pytest.raises(ValidationError):
        Partition((p0, p0))


def test_density_validation_rejects_negative_and_traceless():
    with pytest.raises(ValidationError):
        DensityState(np.diag([1.5, -0.5]))
    with pytest.raises(ValidationError):
        DensityState(np.diag([0.4, 0.4]))


def test_pure_state_must_be_normalized():
    with pytest.raises(ValidationError):
        PureState(np.array([1.0, 1.0]))
    assert PureState.normalized([1.0, 1.0]).dim == 2


def _invalid_density(kind, d=3):
    rho = np.eye(d, dtype=complex) / d
    if kind == "non-finite":
        rho[0, 1] = np.nan
    elif kind == "non-Hermitian":
        rho[0, 1] = 0.1
    elif kind == "non-PSD":
        rho = np.diag([1.5, -0.5] + [0.0] * (d - 2)).astype(complex)
    else:
        rho = 1.1 * rho
    return rho


@pytest.mark.parametrize("kind", ["non-finite", "non-Hermitian", "non-PSD", "wrong trace"])
@pytest.mark.parametrize("position", [0, 3])
def test_density_stack_check_raises_the_single_state_message(kind, position):
    rng = rng_for(37, 0)
    stack = np.array([ginibre_state(3, rng).rho for _ in range(5)])
    _check_density(stack)
    stack[position] = _invalid_density(kind)
    with pytest.raises(ValidationError) as single:
        DensityState(stack[position])
    with pytest.raises(ValidationError) as stacked:
        _check_density(stack)
    assert str(stacked.value) == str(single.value)


def test_event_pair_must_commute():
    a = ProjectionEvent.from_vector([1.0, 0.0])
    b = ProjectionEvent.from_vector([1.0, 1.0])
    with pytest.raises(ValidationError):
        EventPair(a, b)


def test_tolerance_domain():
    with pytest.raises(ValidationError):
        Tolerance(eps_eq=0.0)
    with pytest.raises(ValidationError):
        Tolerance(eps_prob=1.5)


def test_perfect_correlation_state_domain():
    with pytest.raises(ValidationError):
        perfect_correlation_state(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# pair products and the screening report's conditional probabilities
# ---------------------------------------------------------------------------

def test_pair_products_are_built_once_and_read_only(pair):
    first = pair.products()
    second = pair.products()
    assert all(x is y for x, y in zip(first, second))
    for x in first:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0, 0] = 0.0


@pytest.mark.parametrize("dim", [4, 8])
def test_conditional_joint_matches_conditional_probability(dim):
    rng = rng_for(31, dim)
    state = ginibre_state(dim, rng)
    partition = random_atomic_partition(dim, rng)
    ep = random_commuting_pair(dim, rng)
    report = is_ccs(state, partition, ep)
    assert report.zero_probability_elements == ()
    for c, joint in zip(partition, report.conditional_joint):
        expected = [conditional_probability(state, ProjectionEvent(x), c) for x in ep.products()]
        assert joint == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# rank-one elements just above eps_prob
# ---------------------------------------------------------------------------

_EDGE_WEIGHTS = (1e-6, 1e-8, 1e-10)


def _rank_one_edge_states(w, n):
    """CCSclassU at theta = pi/3 (analytically strongly trivial) with
    rho = (1 - w) sigma + w C_0, sigma a Ginibre state on the complement of C_0.

    C_0 has probability w, just above eps_prob.  Its conditionals are read
    state-independently as Tr(C_0 X); through Tr(rho C X C) / phi(C) they
    would carry a roundoff of order u / w and break screening spuriously.
    The matching roundoff term for elements of rank >= 2, c * d * u / phi(C_k),
    is still open: it waits for one dimension-scaled tolerance rule.
    """
    partition = generate(Family.CCSclassU, FamilyParams(theta=math.pi / 3)).partition
    c0 = partition.elements[0].op
    rest = np.eye(4) - c0
    for i in range(n):
        sigma = rest @ ginibre_state(4, rng_for(71, i)).rho @ rest
        rho = (1.0 - w) * sigma / np.trace(sigma).real + w * c0
        yield partition, DensityState((rho + rho.conj().T) / 2.0)


@pytest.mark.parametrize("w", _EDGE_WEIGHTS)
def test_rank_one_element_near_eps_prob_screens(w, pair):
    failed = [
        i
        for i, (partition, state) in enumerate(_rank_one_edge_states(w, 200))
        if not is_ccs(state, partition, pair).holds
    ]
    assert not failed, f"is_ccs failed in {len(failed)} of 200 states at w={w}"


@pytest.mark.parametrize("w", _EDGE_WEIGHTS)
def test_rank_one_element_near_eps_prob_classifies_strong(w, pair):
    for partition, state in _rank_one_edge_states(w, 5):
        report = classify(partition, pair, state, SamplerConfig(seed=1))
        assert report.is_ccs and report.zero_probability_elements == ()
        assert report.triviality is TrivialityLevel.STRONG
        assert report.certificate.kind is CertificateKind.ANALYTIC


@pytest.mark.parametrize("w", _EDGE_WEIGHTS)
def test_rank_one_element_near_eps_prob_canonical_conditionals(w, pair):
    g = rotated_product_vectors(math.pi / 3)[0]
    g = g / np.linalg.norm(g)
    expected = [float(np.real(g.conj() @ x.op @ g)) for x in (pair.a, pair.b)]
    for partition, state in _rank_one_edge_states(w, 20):
        assert conditional_probs_canonical(state, partition)[0] == pytest.approx(
            expected, rel=0.0, abs=1e-15
        )
