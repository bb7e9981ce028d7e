"""Composite classification and triviality certification."""

import math
import sys

import numpy as np
import pytest

import ccslab.core

from ccslab.classify import (
    CertificateKind,
    Determinism,
    ProductStatus,
    certify_triviality,
    classify,
)
from ccslab.core import (
    CommutationClass,
    CorrelationClass,
    DensityState,
    EventPair,
    Partition,
    DEFAULT_TOL,
    PreconditionError,
    ProjectionEvent,
    Tolerance,
    check_lemma_wcomm,
    is_ccs,
    is_deterministic_ccs,
)
from ccslab.families import (
    Family,
    FamilyParams,
    TrivialityLevel,
    associated_state,
    bell_phi_vector,
    generate,
)
from ccslab.goldentable import CellStatus, reference_state, run_golden_table
from ccslab.sampling import (
    SamplerConfig,
    ginibre_state,
    haar_pure_state,
    haar_unitary,
    random_commuting_pair,
    rng_for,
)
from ccslab.twoqubit import canonical_events

# the package attribute ``ccslab.classify`` is the function, not the module
classify_mod = sys.modules["ccslab.classify"]

CFG = SamplerConfig(seed=42, n_states=250, n_event_pairs=60)
RT2 = math.sqrt(2.0)


@pytest.fixture
def pair():
    return canonical_events()


def _classified(family, params=FamilyParams()):
    inst = generate(family, params)
    state = reference_state(family, params)
    return classify(inst.partition, canonical_events(), state, CFG)


def test_rotated_basis_report():
    report = _classified(Family.CCSGabor)
    assert report.is_ccs and report.atomic
    assert report.commutation is CommutationClass.NONCOMMUTING
    assert report.product is ProductStatus.ALL_PRODUCT
    assert report.triviality is TrivialityLevel.STRONG
    assert report.certificate.kind is CertificateKind.ANALYTIC
    assert report.ltp is True
    assert report.deterministic is Determinism.INDETERMINISTIC


def test_nonscreening_partition_report():
    report = _classified(Family.CLTP)
    assert not report.is_ccs
    assert report.triviality is TrivialityLevel.NOT_A_CCS
    assert report.deterministic is Determinism.NOT_A_CCS
    assert report.ltp is True
    assert report.notes


def test_rank_two_contrast_report(pair):
    params = FamilyParams(c=1.0 / RT2, s=1.0 / RT2, r1=1.0, r2=0.0, r3=0.0)
    inst = generate(Family.CCS22ntratC, params)
    state = associated_state(Family.CCS22ntratC, params)
    report = classify(inst.partition, pair, state, CFG)
    assert report.triviality is TrivialityLevel.NONTRIVIAL
    assert report.commutation is CommutationClass.NONCOMMUTING
    assert report.ltp is True
    assert report.deterministic is Determinism.DETERMINISTIC
    assert report.correlation_class is CorrelationClass.MAXIMALLY_CORRELATED
    assert not report.atomic and report.rank_profile == (2, 2)


def test_zero_probability_elements_reported(pair):
    inst = generate(Family.CCSntrat, FamilyParams(theta=1.0))
    state = reference_state(Family.CCSntrat, FamilyParams(theta=1.0))
    report = classify(inst.partition, pair, state, CFG)
    assert report.zero_probability_elements == (1, 2)
    assert report.commutation is CommutationClass.WEAKLY_COMMUTING


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def test_product_atomic_certified_strong_analytically(pair, max_mixed):
    inst = generate(Family.CCSclassU, FamilyParams(theta=math.pi / 3))
    level, cert = certify_triviality(inst.partition, pair, max_mixed, CFG)
    assert level is TrivialityLevel.STRONG
    assert cert.kind is CertificateKind.ANALYTIC


def test_exponential_family_certified_weak_analytically(pair, max_mixed):
    inst = generate(Family.CCShyper, FamilyParams(xi=0.9, zeta=-1.4))
    level, cert = certify_triviality(inst.partition, pair, max_mixed, CFG)
    assert level is TrivialityLevel.WEAK
    assert cert.kind is CertificateKind.ANALYTIC
    assert cert.counterexample is not None  # the strong-level falsifier


def test_complement_form_certified_weak(pair, bell_density):
    inst = generate(Family.TrivAB2)
    level, cert = certify_triviality(inst.partition, pair, bell_density, CFG)
    assert level is TrivialityLevel.WEAK
    assert cert.kind is CertificateKind.ANALYTIC
    assert "complement" in cert.detail


@pytest.mark.parametrize("first, second", [(0, 1), (1, 0), (2, 3), (3, 2)])
def test_either_event_and_its_complement_certified_weak(first, second, pair, max_mixed):
    events = (pair.a.op, np.eye(4) - pair.a.op, pair.b.op, np.eye(4) - pair.b.op)
    partition = Partition((events[first], events[second]))
    level, cert = certify_triviality(partition, pair, max_mixed, CFG)
    assert (level, cert.kind) == (TrivialityLevel.WEAK, CertificateKind.ANALYTIC)
    assert "complement" in cert.detail


def _sector_pair_d6():
    # all four sectors AB, AB', A'B, A'B' nonempty, two of them of rank two
    u = haar_unitary(6, rng_for(5, 0))
    a, b = (
        ProjectionEvent(u @ np.diag(pattern).astype(complex) @ u.conj().T)
        for pattern in ([1, 1, 0, 0, 1, 0], [1, 0, 1, 0, 0, 0])
    )
    return EventPair(a, b)


def test_permuted_products_certified_weak():
    pair6 = _sector_pair_d6()
    ab, ab_, a_b, a_b_ = pair6.products()
    partition = Partition((a_b, a_b_, ab, ab_))
    assert partition.rank_profile() == (1, 2, 1, 2)
    level, cert = certify_triviality(partition, pair6, DensityState.maximally_mixed(6), CFG)
    assert (level, cert.kind) == (TrivialityLevel.WEAK, CertificateKind.ANALYTIC)
    assert "complement" in cert.detail


def test_union_of_sectors_weak_by_sampling():
    # B = AB + A'B with AB' and A'B' screens in every state, but is no complement form
    pair6 = _sector_pair_d6()
    ab, ab_, a_b, a_b_ = pair6.products()
    partition = Partition((ab + a_b, ab_, a_b_))
    level, cert = certify_triviality(partition, pair6, DensityState.maximally_mixed(6), CFG)
    assert (level, cert.kind) == (TrivialityLevel.WEAK, CertificateKind.SAMPLED)
    assert cert.n == 2 * CFG.n_states + 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_partition_diagonal_in_the_only_probe_is_not_strong(seed):
    # with one probe pair, a partition diagonal in its basis screens every probe
    # (pair, state); strong triviality still fails, e.g. for (P, P) below
    cfg = SamplerConfig(seed=seed, n_event_pairs=1)
    probe = random_commuting_pair(2, rng_for(seed, 12, 0))
    _, vecs = np.linalg.eigh(probe.a.op + 2.0 * probe.b.op)
    partition = Partition.from_vectors(vecs.T)
    mixed = DensityState.maximally_mixed(2)
    level, cert = certify_triviality(partition, probe, mixed, cfg)
    assert level is not TrivialityLevel.STRONG
    assert cert.counterexample is None
    p = ProjectionEvent.from_vector((vecs[:, 0] + vecs[:, 1]) / RT2)
    assert not is_ccs(mixed, partition, EventPair(p, p)).holds


def test_nontrivial_atomic_with_replayable_counterexample(pair, bell_density):
    inst = generate(Family.CCSntrat, FamilyParams(theta=math.pi / 3))
    level, cert = certify_triviality(inst.partition, pair, bell_density, CFG)
    assert level is TrivialityLevel.NONTRIVIAL
    witness = DensityState(cert.counterexample["state"])
    assert not is_ccs(witness, inst.partition, pair).holds


def test_nontrivial_atomic_golden_cells_use_the_maximally_mixed_witness(golden_reports):
    # every defect of the screening identity is is_ccs's own delta in I/4
    nontrivial = [
        (family, params, report.certificate)
        for family, params, _, _, report in golden_reports
        if report.atomic and report.triviality is TrivialityLevel.NONTRIVIAL
    ]
    assert len(nontrivial) == 12
    for family, params, cert in nontrivial:
        assert cert.kind is CertificateKind.ANALYTIC, (family, params)
        assert cert.counterexample["kind"] == "weak_triviality"
        assert np.array_equal(cert.counterexample["state"], np.eye(4) / 4), (family, params)


def test_nontrivial_rank_two_sampled(pair, bell_density):
    inst = generate(Family.CCS22ntrat, FamilyParams(theta=math.pi / 3))
    level, cert = certify_triviality(inst.partition, pair, bell_density, CFG)
    assert level is TrivialityLevel.NONTRIVIAL
    assert cert.kind is CertificateKind.SAMPLED
    assert cert.seed == CFG.seed and cert.n is not None
    witness = DensityState(cert.counterexample["state"])
    assert not is_ccs(witness, inst.partition, pair).holds


def test_one_sided_rank_two_partition_weak_by_sampling(pair, bell_density):
    # at multiples of pi the rank-two rotated family screens for every state
    inst = generate(Family.CCS22ntratU, FamilyParams(theta=0.0))
    level, cert = certify_triviality(inst.partition, pair, bell_density, CFG)
    assert level is TrivialityLevel.WEAK
    assert cert.kind is CertificateKind.SAMPLED


def test_certification_needs_a_screening_partition(pair, full_support_state):
    inst = generate(Family.CLTP)
    with pytest.raises(PreconditionError):
        certify_triviality(inst.partition, pair, full_support_state, CFG)


# ---------------------------------------------------------------------------
# report consistency
# ---------------------------------------------------------------------------

def test_commuting_report_passes_weak_commutation_lemma(pair):
    for family, params in [
        (Family.CCSclass, FamilyParams()),
        (Family.CCSntrat, FamilyParams(theta=1.2)),
    ]:
        inst = generate(family, params)
        state = reference_state(family, params)
        report = classify(inst.partition, pair, state, CFG)
        if report.commutation in (
            CommutationClass.COMMUTING,
            CommutationClass.WEAKLY_COMMUTING,
        ):
            assert check_lemma_wcomm(state, inst.partition, pair)


def test_deterministic_report_implies_binary_conditionals(pair):
    from ccslab.twoqubit import conditional_probs_canonical

    params = FamilyParams(theta=2.1)
    inst = generate(Family.CCS22ntrat, params)
    state = reference_state(Family.CCS22ntrat, params)
    report = classify(inst.partition, pair, state, CFG)
    assert report.deterministic is Determinism.DETERMINISTIC
    table = conditional_probs_canonical(state, inst.partition)
    for entry in table.entries:
        if entry is None:
            continue
        for p in entry:
            assert min(abs(p), abs(1.0 - p)) <= 1e-9


# ---------------------------------------------------------------------------
# golden-table harness self-test
# ---------------------------------------------------------------------------

def test_golden_subset_passes():
    outcomes = run_golden_table(
        CFG,
        thetas=(0.0, math.pi / 3),
        families=[Family.CCSGabor, Family.CCSntrat, Family.CLTP],
    )
    assert all(o.status is not CellStatus.FAIL for o in outcomes)
    skipped = [o for o in outcomes if o.status is CellStatus.SKIPPED]
    assert skipped  # not-applicable cells are surfaced, not hidden


def test_golden_detects_corrupted_expectations():
    from ccslab.families import expected_table_row
    import dataclasses

    def corrupted(family, params):
        row = expected_table_row(family, params)
        if family is Family.CCSGabor:
            return dataclasses.replace(row, deterministic=True)
        return row

    outcomes = run_golden_table(
        CFG, families=[Family.CCSGabor], expected_override=corrupted
    )
    fails = [o for o in outcomes if o.status is CellStatus.FAIL]
    assert len(fails) == 1
    assert fails[0].column == "deterministic"
    assert fails[0].family is Family.CCSGabor


def test_unresolved_ltp_cells_report_residuals():
    outcomes = run_golden_table(CFG, thetas=(math.pi / 3,), families=[Family.CCSBell])
    ltp_cells = [o for o in outcomes if o.column == "ltp"]
    assert all(o.status is CellStatus.SKIPPED for o in ltp_cells)
    assert all("residuals" in o.detail for o in ltp_cells)


# ---------------------------------------------------------------------------
# one screening per report
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family, theta",
    [
        (Family.CCSntrat, math.pi / 3),  # analytic nontrivial
        (Family.CCS22ntrat, math.pi / 3),  # sampled witness at n=1
        (Family.CCS22ntratU, 0.0),  # sampled weak, n = 2 * 250 + 1
        (Family.CCS22ntratU, math.pi / 3),
    ],
)
def test_classify_matches_the_public_predicates(family, theta, pair):
    partition = generate(family, FamilyParams(theta=theta)).partition
    state = DensityState.from_vector(bell_phi_vector())
    report = classify(partition, pair, state, CFG)
    level, cert = certify_triviality(partition, pair, state, CFG)
    assert report.triviality is level
    got = report.certificate
    assert (got.kind, got.detail, got.seed, got.n) == (cert.kind, cert.detail, cert.seed, cert.n)
    assert np.array_equal(got.counterexample["state"], cert.counterexample["state"])
    deterministic = is_deterministic_ccs(state, partition, pair)
    assert (report.deterministic is Determinism.DETERMINISTIC) == deterministic


def test_classify_screens_the_reference_triple_once(pair, monkeypatch):
    calls = []
    original = ccslab.core.is_ccs

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ccslab.core, "is_ccs", counting)
    monkeypatch.setattr(sys.modules["ccslab.classify"], "is_ccs", counting)
    report = _classified(Family.TrivAB4)
    assert report.is_ccs and report.certificate.kind is CertificateKind.ANALYTIC
    assert len(calls) == 1


@pytest.mark.parametrize("family", [Family.CCSclassU, Family.CCStwist])
@pytest.mark.parametrize("offset", [4.6e-5, 5e-5, 6.2e-5])
@pytest.mark.parametrize("base", [0.0, math.pi])
def test_determinism_cross_check_tolerates_its_slack(family, offset, base):
    # phi(A|C) ~ 1 - theta^2/4 is binary within eps_eq, phi(AB|C) ~ 1 - theta^2/2
    # only within 2 * eps_eq: the tests disagree within their slack, and the
    # two-event verdict stands
    report = _classified(family, FamilyParams(theta=base + offset))
    assert report.is_ccs
    assert report.deterministic is Determinism.DETERMINISTIC


def test_nontrivial_atomic_cell_draws_no_probes(pair, bell_density, max_mixed, monkeypatch):
    # only WEAK certificates carry the strong falsifier, so a NONTRIVIAL verdict
    # never searches for it
    tags = []
    original = classify_mod._probe_chunks

    def counting(dim, rho_ref, seed, tag, count):
        tags.append(tag)
        return original(dim, rho_ref, seed, tag, count)

    monkeypatch.setattr(classify_mod, "_probe_chunks", counting)
    inst = generate(Family.CCSntrat, FamilyParams(theta=math.pi / 3))
    level, cert = certify_triviality(inst.partition, pair, bell_density, CFG)
    assert (level, cert.kind) == (TrivialityLevel.NONTRIVIAL, CertificateKind.ANALYTIC)
    assert tags == []
    inst = generate(Family.CCShyper, FamilyParams(xi=0.9, zeta=-1.4))
    level, cert = certify_triviality(inst.partition, pair, max_mixed, CFG)
    assert (level, cert.kind) == (TrivialityLevel.WEAK, CertificateKind.ANALYTIC)
    assert tags == [13]


# ---------------------------------------------------------------------------
# the chunked probe stream replays the sequential one
# ---------------------------------------------------------------------------

def _sequential_probe_states(dim, rho_ref, seed, tag, count):
    """The probe stream one state at a time, from the public samplers."""
    yield np.eye(dim, dtype=complex) / dim
    for i in range(count):
        rng = rng_for(seed, tag, i)
        sample = ginibre_state(dim, rng).rho
        w = (0.5, 0.1, 0.01)[i % 3]
        mixed = (1.0 - w) * rho_ref + w * sample
        yield mixed / np.trace(mixed).real
        psi = haar_pure_state(dim, rng).psi
        yield np.outer(psi, psi.conj())


@pytest.mark.parametrize("dim", [2, 4, 8])
@pytest.mark.parametrize("count", [1, 2, 3, 1000])
def test_probe_chunks_concatenate_to_the_sequential_stream(dim, count):
    rho_ref = ginibre_state(dim, rng_for(31, dim)).rho
    chunks = list(classify_mod._probe_chunks(dim, rho_ref, 9, 14, count))
    sizes = [len(c) for c in chunks]
    assert sizes[0] == 1 and max(sizes) <= classify_mod._MAX_CHUNK
    assert all(b == min(2 * a, classify_mod._MAX_CHUNK) for a, b in zip(sizes[:-2], sizes[1:-1]))
    reference = np.array(list(_sequential_probe_states(dim, rho_ref, 9, 14, count)))
    assert np.array_equal(np.concatenate(chunks), reference)


def test_a_full_probe_stack_passes_the_public_constructor():
    rho_ref = ginibre_state(5, rng_for(32, 0)).rho
    stacks = list(classify_mod._probe_chunks(5, rho_ref, 4, 14, 100))
    assert len(stacks[7]) == classify_mod._MAX_CHUNK
    for rho in stacks[7]:
        assert np.array_equal(DensityState(rho).rho, rho)


def _tilted_sector_triple():
    """{B, AB', A'B'} of the canonical pair turned by a small unitary: no longer
    screening in every state, with a margin that varies from state to state."""
    pair = canonical_events()
    ab, ab_, a_b, a_b_ = pair.products()
    h = rng_for(8, 0).standard_normal((4, 4))
    w, v = np.linalg.eigh(h + h.T)
    u = v @ np.diag(np.exp(0.05j * w)) @ v.conj().T
    partition = Partition(tuple(u @ x @ u.conj().T for x in (ab + a_b, ab_, a_b_)))
    return partition, pair, ginibre_state(4, rng_for(9, 0))


def _margin(rho, partition, pair):
    deltas = is_ccs(DensityState(rho), partition, pair).conditional_deltas
    return max(max(abs(f) for f in d) for d in deltas if d is not None)


def _sequential_scan(partition, pair, rho_ref, seed, count, tol):
    """(n, witness) of the first probe state that is not screened, or (states, None)."""
    n = 0
    for rho in _sequential_probe_states(partition.dim, rho_ref, seed, 14, count):
        n += 1
        if not is_ccs(DensityState(rho), partition, pair, tol).holds:
            return n, rho
    return n, None


@pytest.mark.parametrize(
    "seed, n",
    [
        (5, 4),  # the first state of the third stack (states 4-7)
        (5, 7),  # the last state of that stack
        (5, 9),  # inside the fourth stack (states 8-15)
        (2, 4),
    ],
)
def test_sampled_witness_matches_a_sequential_scan(seed, n):
    partition, pair, state = _tilted_sector_triple()
    margins = [
        _margin(rho, partition, pair)
        for rho in _sequential_probe_states(4, state.rho, seed, 14, n // 2)
    ]
    # a tolerance between the margins that makes state n the first to fail
    below = max(margins[: n - 1] + [_margin(state.rho, partition, pair)])
    assert margins[n - 1] > below * (1 + 1e-6), "state n sets no new margin record"
    tol = Tolerance(eps_eq=(below + margins[n - 1]) / 2)
    cfg = SamplerConfig(seed=seed, n_states=40)
    level, cert = certify_triviality(partition, pair, state, cfg, tol)
    want_n, want_witness = _sequential_scan(partition, pair, state.rho, seed, 40, tol)
    assert (level, cert.kind, cert.seed) == (TrivialityLevel.NONTRIVIAL, CertificateKind.SAMPLED, seed)
    assert cert.n == want_n == n
    assert np.array_equal(cert.counterexample["state"], want_witness)


def test_sampled_witness_on_the_first_state(pair, bell_density):
    inst = generate(Family.CCS22ntrat, FamilyParams(theta=math.pi / 3))
    level, cert = certify_triviality(inst.partition, pair, bell_density, CFG)
    want_n, want_witness = _sequential_scan(
        inst.partition, pair, bell_density.rho, CFG.seed, CFG.n_states, DEFAULT_TOL
    )
    assert level is TrivialityLevel.NONTRIVIAL
    assert cert.n == want_n == 1
    assert np.array_equal(cert.counterexample["state"], want_witness)


def test_sampled_weak_certificate_matches_a_sequential_scan():
    pair6 = _sector_pair_d6()
    ab, ab_, a_b, a_b_ = pair6.products()
    partition = Partition((ab + a_b, ab_, a_b_))
    state = ginibre_state(6, rng_for(4, 0))
    cfg = SamplerConfig(seed=3, n_states=150, n_event_pairs=6)
    level, cert = certify_triviality(partition, pair6, state, cfg)
    assert (level, cert.kind) == (TrivialityLevel.WEAK, CertificateKind.SAMPLED)
    assert cert.n == _sequential_scan(partition, pair6, state.rho, 3, 150, DEFAULT_TOL)[0] == 301
    # the strong falsifier: the first (probe pair, state) in sequential order
    falsifier = next(
        (probe, rho)
        for probe in classify_mod._strong_probe_pairs(6, None, cfg)
        for rho in _sequential_probe_states(6, state.rho, 3, 13, 2)
        if not is_ccs(DensityState(rho), partition, probe).holds
    )
    assert np.array_equal(cert.counterexample["pair_a"], falsifier[0].a.op)
    assert np.array_equal(cert.counterexample["state"], falsifier[1])
