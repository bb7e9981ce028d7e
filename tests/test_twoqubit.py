"""Two-qubit determinant criteria, specialized forms, state constructions."""

import math

import numpy as np
import pytest

from ccslab.core import (
    DensityState,
    DimensionMismatchError,
    Partition,
    PreconditionError,
    ProjectionEvent,
    ValidationError,
    conditional_probability,
    correlation,
    correlation_class,
    CorrelationClass,
    satisfies_ltp,
)
from ccslab.families import (
    Family,
    FamilyParams,
    associated_state,
    bell_phi_vector,
    generate,
    rotated_product_vectors,
    spec_ltp_state_vector,
)
from ccslab.sampling import ginibre_state, haar_pure_state, haar_vector, rng_for
from ccslab.twoqubit import (
    KET_MINUS,
    KET_PLUS,
    basis_ket,
    canonical_events,
    concurrence_squared,
    conditional_probs_canonical,
    correlation_determinant,
    diagonal_unitary,
    is_diagonal_computational,
    ltp_check_2x2,
    nonproduct_from_product,
    perfect_correlation_pure,
    perfect_correlation_state,
    principal_vector,
    product_factors,
    product_ket,
    productness_determinant,
    schmidt_rank,
    screening_determinant,
    separability_determinant,
)

RT5 = math.sqrt(5.0)


# ---------------------------------------------------------------------------
# canonical events
# ---------------------------------------------------------------------------

def test_canonical_events_structure():
    pair = canonical_events()
    ab = pair.products()[0]
    assert np.allclose(ab, np.diag([1, 0, 0, 0]))
    assert np.allclose(pair.a.op + (np.eye(4) - pair.a.op), np.eye(4))
    assert pair.a.rank == 2 and pair.b.rank == 2


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def test_productness_determinant_basics(bell_state):
    assert productness_determinant(basis_ket(0, 0)) == pytest.approx(0.0, abs=1e-15)
    assert productness_determinant(bell_state) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.2])
def test_productness_determinant_bell_family(theta):
    inst = generate(Family.CCSBell, FamilyParams(theta=theta))
    for c in inst.partition:
        det = productness_determinant(principal_vector(c))
        assert abs(det) == pytest.approx(abs(math.sin(theta)) / 2.0, abs=1e-12)


def test_screening_determinant_exponential_family_vanishes():
    for xi, zeta in [(0.0, 0.0), (1.0, 0.5), (-2.0, 3.0), (4.0, -4.0)]:
        inst = generate(Family.CCShyper, FamilyParams(xi=xi, zeta=zeta))
        for c in inst.partition:
            assert screening_determinant(principal_vector(c)) == pytest.approx(0.0, abs=1e-12)


def test_screening_determinant_of_nonscreening_atoms():
    inst = generate(Family.CLTP)
    dets = [screening_determinant(principal_vector(c)) for c in inst.partition]
    assert sorted(round(d, 12) for d in dets) == [-0.25, -0.25, 0.25, 0.25]


def test_screening_determinant_antidiagonal_atom():
    theta = 0.8
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    gamma = c * basis_ket(0, 1) + s * basis_ket(1, 0)
    assert screening_determinant(gamma) == pytest.approx(-(c * s) ** 2, abs=1e-13)


def test_separability_determinant_reference_states():
    assert separability_determinant(spec_ltp_state_vector(False)) == pytest.approx(
        -0.5, abs=1e-12
    )
    assert separability_determinant(spec_ltp_state_vector(True)) == pytest.approx(
        1.0 / (2.0 * RT5), abs=1e-12
    )
    assert separability_determinant(product_ket(KET_PLUS, KET_MINUS)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_correlation_determinant_reference_values(bell_state):
    assert correlation_determinant(bell_state) == pytest.approx(0.25, abs=1e-12)
    assert correlation_determinant(spec_ltp_state_vector(False)) == pytest.approx(
        1.0 / (4.0 * RT5), abs=1e-12
    )
    rng = rng_for(31)
    prod = product_ket(haar_vector(2, rng), haar_vector(2, rng))
    assert correlation_determinant(prod) == pytest.approx(0.0, abs=1e-12)


def test_correlation_determinant_equals_engine_correlation():
    pair = canonical_events()
    for i in range(1000):
        psi = haar_pure_state(4, rng_for(32, i))
        orig, bal = correlation(psi, pair)
        det = correlation_determinant(psi)
        assert det == pytest.approx(orig, abs=1e-12)
        assert det == pytest.approx(bal, abs=1e-12)


def test_concurrence_squared_values(bell_state):
    assert concurrence_squared(bell_state) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_squared(product_ket(KET_PLUS, KET_PLUS)) == pytest.approx(0.0, abs=1e-14)
    assert concurrence_squared(spec_ltp_state_vector(True)) == pytest.approx(0.2, abs=1e-12)


def test_productness_iff_schmidt_rank_one():
    rng = rng_for(33)
    for i in range(300):
        r = rng_for(34, i)
        if i % 2:
            v = product_ket(haar_vector(2, r), haar_vector(2, r))
        else:
            v = haar_vector(4, r)
        assert (abs(productness_determinant(v)) <= 1e-9) == (schmidt_rank(v) == 1)


def test_product_factors_recover_the_vector():
    rng = rng_for(35)
    alpha, beta = haar_vector(2, rng), haar_vector(2, rng)
    a, b = product_factors(product_ket(alpha, beta))
    assert np.allclose(np.kron(a, b), product_ket(alpha, beta), atol=1e-12)
    with pytest.raises(PreconditionError):
        product_factors(bell_phi_vector())


# ---------------------------------------------------------------------------
# conditional probability tables
# ---------------------------------------------------------------------------

def test_conditional_table_twisted_family(full_support_state):
    theta = 0.7
    c2 = math.cos(theta / 2.0) ** 2
    s2 = math.sin(theta / 2.0) ** 2
    inst = generate(Family.CCStwist, FamilyParams(theta=theta))
    table = conditional_probs_canonical(full_support_state, inst.partition)
    expect_a = [c2, c2, s2, s2]
    expect_b = [c2, s2, c2, s2]
    for k in range(4):
        pa, pb = table[k]
        assert pa == pytest.approx(expect_a[k], abs=1e-12)
        assert pb == pytest.approx(expect_b[k], abs=1e-12)


def test_conditional_table_exponential_family(max_mixed):
    xi, zeta = 1.2, -0.5
    inst = generate(Family.CCShyper, FamilyParams(xi=xi, zeta=zeta))
    n2 = 1.0 / (2.0 * (math.cosh(xi) + math.cosh(zeta)))
    ep, em = math.exp(xi), math.exp(-xi)
    fp, fm = math.exp(zeta), math.exp(-zeta)
    expect_a = [n2 * (ep + fp), n2 * (em + fm), n2 * (ep + fp), n2 * (em + fm)]
    expect_b = [n2 * (ep + fm), n2 * (em + fp), n2 * (em + fp), n2 * (ep + fm)]
    table = conditional_probs_canonical(max_mixed, inst.partition)
    for k in range(4):
        pa, pb = table[k]
        assert pa == pytest.approx(expect_a[k], abs=1e-12)
        assert pb == pytest.approx(expect_b[k], abs=1e-12)


def test_canonical_helpers_reject_other_dimensions(max_mixed):
    four = generate(Family.CCSclass).partition
    two = Partition((ProjectionEvent.diagonal([1, 0]), ProjectionEvent.diagonal([0, 1])))
    for helper in (conditional_probs_canonical, ltp_check_2x2):
        with pytest.raises(DimensionMismatchError):
            helper(max_mixed, two)
        with pytest.raises(DimensionMismatchError):
            helper(DensityState.maximally_mixed(2), four)


def test_conditional_table_zero_probability_entries_flagged(bell_state):
    inst = generate(Family.CCSntratU, FamilyParams(theta=1.0))
    table = conditional_probs_canonical(bell_state, inst.partition)
    assert table[0] == pytest.approx((0.5, 0.5), abs=1e-12)
    assert table[3] == pytest.approx((0.5, 0.5), abs=1e-12)
    assert table[1] is None and table[2] is None
    assert not table.defined(1)


def test_conditional_table_agrees_with_engine(full_support_state):
    pair = canonical_events()
    inst = generate(Family.CCS22ntrat, FamilyParams(theta=1.1))
    table = conditional_probs_canonical(full_support_state, inst.partition)
    for k, c in enumerate(inst.partition):
        pa, pb = table[k]
        assert pa == pytest.approx(conditional_probability(full_support_state, pair.a, c), abs=1e-10)
        assert pb == pytest.approx(conditional_probability(full_support_state, pair.b, c), abs=1e-10)


def test_conditional_table_pure_state_specialization(bell_state):
    pair = canonical_events()
    inst = generate(Family.CCS22ntratU, FamilyParams(theta=0.9))
    table = conditional_probs_canonical(bell_state, inst.partition)
    for k, c in enumerate(inst.partition):
        pa, pb = table[k]
        assert pa == pytest.approx(conditional_probability(bell_state, pair.a, c), abs=1e-10)
        assert pb == pytest.approx(conditional_probability(bell_state, pair.b, c), abs=1e-10)
        assert pa == pytest.approx(0.5, abs=1e-12) and pb == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# two-qubit law of total probability
# ---------------------------------------------------------------------------

def test_ltp_2x2_reference_pair_and_weights():
    inst = generate(Family.CCSclassUspec)
    state = associated_state(Family.CCSclassUspec)
    report = ltp_check_2x2(state, inst.partition)
    assert report.holds
    assert max(abs(r) for r in report.residuals) <= 1e-12
    weights = [
        float(np.real(principal_vector(c).conj() @ state.rho @ principal_vector(c)))
        for c in inst.partition
    ]
    expected = [(RT5 + 2) / (4 * RT5), (RT5 - 2) / (4 * RT5)] * 2
    expected = [expected[0], expected[1], expected[1], expected[0]]
    assert weights == pytest.approx(expected, abs=1e-12)


def test_ltp_2x2_rank_two_family_on_bell(bell_state):
    inst = generate(Family.CCS22ntrat, FamilyParams(theta=1.3))
    assert ltp_check_2x2(bell_state, inst.partition).holds


def test_ltp_2x2_fails_for_generic_state_and_agrees_with_longhand():
    inst = generate(Family.CCSGabor)
    psi = haar_pure_state(4, rng_for(36))
    report = ltp_check_2x2(psi, inst.partition)
    # longhand oracle: sum_k q_k |<ij|g_k>|^2 - |<ij|psi>|^2
    gammas = [principal_vector(c) for c in inst.partition]
    qs = [abs(np.vdot(g, psi.psi)) ** 2 for g in gammas]
    for idx in range(4):
        longhand = sum(
            q * abs(g[idx]) ** 2 for q, g in zip(qs, gammas)
        ) - abs(psi.psi[idx]) ** 2
        assert report.residuals[idx] == pytest.approx(longhand, abs=1e-12)
    assert not report.holds


def test_ltp_2x2_matches_engine_form(full_support_state):
    pair = canonical_events()
    for theta in (0.4, 1.7):
        inst = generate(Family.CCSBell, FamilyParams(theta=theta))
        assert (
            ltp_check_2x2(full_support_state, inst.partition).holds
            == satisfies_ltp(full_support_state, inst.partition, pair).holds
        )


# ---------------------------------------------------------------------------
# perfect-correlation states
# ---------------------------------------------------------------------------

def test_perfect_correlation_state_edge_points(bell_density):
    assert np.allclose(perfect_correlation_state(1.0, 0.0, 0.0).rho, bell_density.rho, atol=1e-12)
    assert np.allclose(
        perfect_correlation_state(0.0, 0.0, 1.0).rho,
        np.outer(basis_ket(0, 0), basis_ket(0, 0)),
        atol=1e-12,
    )


def test_perfect_correlation_state_invariant_and_delta():
    pair = canonical_events()
    proj = np.diag([1.0, 0.0, 0.0, 1.0]).astype(complex)
    for i in range(20):
        rng = rng_for(37, i)
        r = rng.standard_normal(3)
        r *= rng.random() / np.linalg.norm(r)
        state = perfect_correlation_state(*r)
        assert np.allclose(proj @ state.rho @ proj, state.rho, atol=1e-12)
        orig, _ = correlation(state, pair)
        assert orig == pytest.approx((1.0 - r[2] ** 2) / 4.0, abs=1e-12)
        cls = correlation_class(state, pair)
        if abs(r[2]) < 1e-9:
            assert cls is CorrelationClass.MAXIMALLY_CORRELATED
        else:
            assert cls is CorrelationClass.PERFECTLY_CORRELATED


def test_perfect_correlation_pure_variant():
    pair = canonical_events()
    state = perfect_correlation_pure(math.sqrt(0.9), 1j * math.sqrt(0.1))
    ab = ProjectionEvent(pair.products()[0])
    from ccslab.core import probability

    assert probability(state, ab) == pytest.approx(0.9, abs=1e-12)
    assert correlation(state, pair)[0] == pytest.approx(0.09, abs=1e-12)
    with pytest.raises(ValidationError):
        perfect_correlation_pure(1.0, 1.0)


def test_degenerate_perfect_state_still_classified_perfect():
    pair = canonical_events()
    state = perfect_correlation_state(0.0, 0.0, 1.0)
    assert correlation_class(state, pair) is CorrelationClass.PERFECTLY_CORRELATED


# ---------------------------------------------------------------------------
# nonproduct construction
# ---------------------------------------------------------------------------

def test_twist_is_the_phase_conjugated_rotation():
    theta = math.pi / 4.0
    out = nonproduct_from_product(
        rotated_product_vectors(theta), (0.0, 0.0, 0.0, math.pi)
    )
    expected = generate(Family.CCStwist, FamilyParams(theta=theta)).partition
    for got, want in zip(out, expected):
        assert np.allclose(got.op, want.op, atol=1e-12)


def test_nonproduct_construction_rejects_product_phases():
    with pytest.raises(PreconditionError):
        nonproduct_from_product(rotated_product_vectors(1.0), (0.0, 0.0, 0.0, 0.0))
    with pytest.raises(PreconditionError):
        # p00 + p11 == p01 + p10: a product diagonal unitary in disguise
        nonproduct_from_product(rotated_product_vectors(1.0), (0.5, 1.5, 0.7, 1.7))


def test_nonproduct_construction_rejects_vanishing_amplitudes():
    with pytest.raises(PreconditionError):
        nonproduct_from_product(rotated_product_vectors(0.0), (0.0, 0.0, 0.0, math.pi))


def test_nonproduct_construction_rejects_entangled_inputs():
    vectors = [principal_vector(c) for c in generate(Family.CLTP).partition]
    with pytest.raises(PreconditionError):
        nonproduct_from_product(vectors, (0.0, 0.0, 0.0, math.pi))


def test_nonproduct_construction_output_invariants():
    for i in range(25):
        rng = rng_for(38, i)
        alphas = [haar_vector(2, rng) for _ in range(2)]
        betas = [haar_vector(2, rng) for _ in range(2)]
        # orthonormalize each factor pair
        alphas[1] -= np.vdot(alphas[0], alphas[1]) * alphas[0]
        alphas[1] /= np.linalg.norm(alphas[1])
        betas[1] -= np.vdot(betas[0], betas[1]) * betas[0]
        betas[1] /= np.linalg.norm(betas[1])
        products = [product_ket(a, b) for a in alphas for b in betas]
        if any(
            min(np.abs(v)) < 0.05
            for v in [np.concatenate([a, b]) for a in alphas for b in betas]
        ):
            continue
        phases = tuple(rng.uniform(0, 2 * math.pi, size=4))
        if abs(np.exp(1j * (phases[0] + phases[3])) - np.exp(1j * (phases[1] + phases[2]))) < 0.1:
            continue
        out = nonproduct_from_product(products, phases)
        for got, orig in zip(out, products):
            v = principal_vector(got)
            assert abs(productness_determinant(v)) > 1e-9
            assert screening_determinant(v) == pytest.approx(
                screening_determinant(orig), abs=1e-12
            )


# ---------------------------------------------------------------------------
# diagonality and phase invariance
# ---------------------------------------------------------------------------

def test_diagonal_detection():
    pair = canonical_events()
    assert is_diagonal_computational(ProjectionEvent(pair.products()[0]))
    assert is_diagonal_computational(pair.a)
    c_plus = generate(Family.CCS22ntrat, FamilyParams(theta=math.pi / 3)).partition.elements[0]
    assert not is_diagonal_computational(c_plus)


def test_diagonal_equivalent_to_commuting_with_canonical_pair():
    pair = canonical_events()
    for i in range(40):
        rng = rng_for(39, i)
        if i % 2:
            pattern = np.zeros(4)
            pattern[rng.permutation(4)[: int(rng.integers(1, 4))]] = 1.0
            proj = ProjectionEvent.diagonal(pattern)
        else:
            from ccslab.sampling import haar_unitary

            u = haar_unitary(4, rng)
            block = u[:, : int(rng.integers(1, 4))]
            proj = ProjectionEvent(block @ block.conj().T)
        commutes = (
            np.linalg.norm(pair.a.op @ proj.op - proj.op @ pair.a.op) <= 4e-9
            and np.linalg.norm(pair.b.op @ proj.op - proj.op @ pair.b.op) <= 4e-9
        )
        assert is_diagonal_computational(proj) == commutes


def test_diagonal_phase_invariance_of_tables_and_ltp():
    rng = rng_for(40)
    theta = 1.234
    inst = generate(Family.CCSBell, FamilyParams(theta=theta))
    state = ginibre_state(4, rng)
    v = diagonal_unitary(rng.uniform(0, 2 * math.pi, size=4))
    conj_partition = Partition(tuple(ProjectionEvent(v @ c.op @ v.conj().T) for c in inst.partition))
    conj_state = DensityState(v @ state.rho @ v.conj().T)
    t0 = conditional_probs_canonical(state, inst.partition)
    t1 = conditional_probs_canonical(conj_state, conj_partition)
    for k in range(4):
        assert t0[k] == pytest.approx(t1[k], abs=1e-10)
    r0 = ltp_check_2x2(state, inst.partition)
    r1 = ltp_check_2x2(conj_state, conj_partition)
    assert r0.residuals == pytest.approx(r1.residuals, abs=1e-10)
