"""Composite classification of (partition, event pair, state) triples.

``classify`` assembles the full report: screening, commutation class,
productness, triviality level, determinism, law of total probability and
correlation strength.  Strong triviality is structural and certified
analytically only (dimension 1, or product-atomic in the declared split).
Weak triviality is certified analytically for atomic partitions (the
per-element screening identity) and complement forms of the pair, and by
seeded state sampling otherwise; sampling also finds the strong falsifier
that weak certificates carry, and runs only when the verdict is WEAK.
Certificate kinds are reported honestly and counterexamples recorded verbatim.

The sampled probe stream (the maximally mixed state, then per index a
mixture of the reference state with a Ginibre sample and a Haar pure state)
is drawn, validated and screened in stacks: the maximally mixed state alone,
then 2, 4, ... states up to _MAX_CHUNK.  The first failing state of a stack
gives the certificate's n and its witness, so a stacked run reports exactly
what screening the states one at a time would.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    CommutationClass,
    CorrelationClass,
    DEFAULT_TOL,
    DensityState,
    EventPair,
    Partition,
    PreconditionError,
    ProjectionEvent,
    Tolerance,
    commutation_class,
    correlation_class,
    _check_density,
    _check_unit_vectors,
    _deterministic,
    _screen,
    density_matrix,
    is_ccs,
    operators_close,
    satisfies_ltp,
)
from .families import TrivialityLevel
from .sampling import (
    SamplerConfig,
    ginibre_matrix,
    haar_vector,
    random_commuting_pair,
    random_product_pair,
    rng_for,
)
from .twoqubit import principal_vector

__all__ = [
    "ProductStatus",
    "Determinism",
    "CertificateKind",
    "TrivialityCertificate",
    "CCSReport",
    "classify",
    "certify_triviality",
]


class ProductStatus(enum.Enum):
    ALL_PRODUCT = "all_product"
    SOME_NONPRODUCT = "some_nonproduct"
    NOT_APPLICABLE = "not_applicable"


class Determinism(enum.Enum):
    DETERMINISTIC = "yes"
    INDETERMINISTIC = "no"
    NOT_A_CCS = "not_a_ccs"


class CertificateKind(enum.Enum):
    ANALYTIC = "analytic"
    SAMPLED = "sampled"


@dataclass(frozen=True)
class TrivialityCertificate:
    kind: CertificateKind
    detail: str
    seed: int | None = None
    n: int | None = None
    counterexample: dict | None = None


@dataclass(frozen=True)
class CCSReport:
    """Everything the classifier knows about one (partition, pair, state) triple."""

    is_ccs: bool
    rank_profile: tuple
    atomic: bool
    commutation: CommutationClass
    product: ProductStatus
    triviality: TrivialityLevel
    ltp: bool
    ltp_residuals: tuple
    deterministic: Determinism
    correlation_class: CorrelationClass
    zero_probability_elements: tuple
    certificate: TrivialityCertificate | None = None
    counterexamples: tuple = ()
    notes: tuple = ()


# ---------------------------------------------------------------------------
# Structure helpers
# ---------------------------------------------------------------------------

def _element_schmidt_product(vec: np.ndarray, dims: tuple, tol: Tolerance) -> bool:
    m = vec.reshape(dims)
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv[1:].max(initial=0.0) <= tol.eps_eq)


def _product_status(partition: Partition, bipartite: tuple | None, tol: Tolerance) -> ProductStatus:
    """Whether every element of an atomic partition is a product vector in the split."""
    if not partition.is_atomic() or bipartite is None:
        return ProductStatus.NOT_APPLICABLE
    for c in partition:
        if not _element_schmidt_product(principal_vector(c, tol), bipartite, tol):
            return ProductStatus.SOME_NONPRODUCT
    return ProductStatus.ALL_PRODUCT


def _atomic_screening_identities(partition: Partition, pair: EventPair, tol: Tolerance):
    """Per-element state-independent screening defect of an atomic partition.

    For atomic C = |g><g| the conditional probabilities are <g|X|g>
    independently of the state, so screening given C holds for every state
    iff <g|AB|g><g|A'B'|g> - <g|AB'|g><g|A'B|g> vanishes: is_ccs's balanced
    delta in every state giving C probability > eps_prob.
    """
    # I/d gives every element probability 1/d, and rank-one elements read Tr(C X) in every state
    maximally_mixed = np.eye(partition.dim, dtype=complex)[None] / partition.dim
    return _screen(maximally_mixed, partition, pair, tol)[3][0, :, 1].tolist()


def _is_complement_form(partition: Partition, pair: EventPair, tol: Tolerance) -> bool:
    """{X, I-X} for X in {A, B}, or the four products of the pair, in any order.

    Partition elements sum to I and are nonzero and mutually orthogonal, so it
    is enough that each element is one of the candidate events.
    """
    if len(partition) == 2:
        identity = np.eye(partition.dim)
        candidates = (pair.a.op, identity - pair.a.op, pair.b.op, identity - pair.b.op)
    elif len(partition) == 4:
        candidates = pair.products()
    else:
        return False
    return all(any(operators_close(c.op, x, tol) for x in candidates) for c in partition)


# ---------------------------------------------------------------------------
# Triviality certification
# ---------------------------------------------------------------------------

def _serialize_counterexample(kind: str, state, pair: EventPair | None) -> dict:
    out = {"kind": kind, "state": np.array(density_matrix(state))}
    if pair is not None:
        out["pair_a"] = np.array(pair.a.op)
        out["pair_b"] = np.array(pair.b.op)
    return out


def _bell_basis_pair(dim: int) -> EventPair | None:
    # maximally entangled orthogonal projectors; the standard probe that
    # product-form pairs cannot replace
    if dim != 4:
        return None
    phi_plus = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    phi_minus = np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)
    return EventPair(
        ProjectionEvent.from_vector(phi_plus), ProjectionEvent.from_vector(phi_minus)
    )


def _strong_probe_pairs(dim: int, dims: tuple | None, cfg: SamplerConfig):
    """Deterministic probes first, then seeded product-form and general pairs."""
    bell = _bell_basis_pair(dim)
    if bell is not None:
        yield bell
    n_product = cfg.n_event_pairs // 2 if dims is not None else 0
    n_general = cfg.n_event_pairs - n_product
    for i in range(n_product):
        yield random_product_pair(dims, rng_for(cfg.seed, 11, i))
    for i in range(n_general):
        yield random_commuting_pair(dim, rng_for(cfg.seed, 12, i))


#: Largest stack of probe states screened at once.  The first stack is I/d
#: alone, since most sampled requests find their witness there; stacks then
#: double up to this cap, which bounds the memory a stack holds.
_MAX_CHUNK = 64


def _probe_chunks(dim: int, rho_ref: np.ndarray, seed: int, tag: int, count: int):
    """The probe stream as validated stacks of states, shape (m, dim, dim).

    The maximally mixed state, then per index i, from rng_for(seed, tag, i), a
    mixture of the reference state with a Ginibre sample (nontrivial CCSs fail
    only off the reference support, so full-support witnesses live there) and
    a Haar pure state: 2 * count + 1 states in stacks of 1, 2, 4, ... up to
    _MAX_CHUNK.
    """
    chunk = np.eye(dim, dtype=complex)[None] / dim
    start = 0
    while True:
        _check_density(chunk)
        yield chunk
        if start == count:
            return
        # each index adds two states, so the next chunk is twice this one, up to the cap
        indices = range(start, min(count, start + min(len(chunk), _MAX_CHUNK // 2)))
        samples, vectors = [], []
        for i in indices:
            rng = rng_for(seed, tag, i)
            samples.append(ginibre_matrix(dim, rng))
            vectors.append(haar_vector(dim, rng))
        psi = np.array(vectors)
        _check_unit_vectors(psi)
        w = np.array([(0.5, 0.1, 0.01)[i % 3] for i in indices])[:, None, None]
        mixed = (1.0 - w) * rho_ref + w * np.array(samples)
        mixed = mixed / np.trace(mixed, axis1=1, axis2=2).real[:, None, None]
        pure = psi[:, :, None] * psi.conj()[:, None, :]
        chunk = np.stack((mixed, pure), axis=1).reshape(-1, dim, dim)
        start = indices.stop


def _first_failure(stacks, partition: Partition, pair: EventPair, tol: Tolerance) -> tuple:
    """(n, state) for the first state of the stream of stacks in which the
    partition does not screen off the pair, counting states from 1, or
    (number of states, None) when every state is screened."""
    n = 0
    for stack in stacks:
        holds = _screen(stack, partition, pair, tol)[0]
        if not holds.all():
            j = int(np.argmin(holds))  # the first False
            return n + j + 1, DensityState(stack[j])
        n += len(stack)
    return n, None


def _strong_falsifier(
    partition: Partition,
    rho_ref: np.ndarray,
    bipartite: tuple | None,
    cfg: SamplerConfig,
    tol: Tolerance,
) -> dict | None:
    """The first probe (commuting pair, state) that breaks screening, or None
    when the budget finds none: each probe pair is screened over the 5 states
    of the tag-13 stream as one stack."""
    dim = partition.dim
    states = np.concatenate(list(_probe_chunks(dim, rho_ref, cfg.seed, 13, count=2)))
    for probe_pair in _strong_probe_pairs(dim, bipartite, cfg):
        _, witness = _first_failure((states,), partition, probe_pair, tol)
        if witness is not None:
            return _serialize_counterexample("strong_triviality", witness, probe_pair)
    return None


def certify_triviality(
    partition: Partition,
    pair: EventPair,
    state,
    cfg: SamplerConfig | None = None,
    tol: Tolerance = DEFAULT_TOL,
    bipartite: tuple | None = None,
) -> tuple:
    """(TrivialityLevel, TrivialityCertificate) for a screening partition.

    Strongly trivial is structural: dimension 1 (every event is 0 or I) or a
    product-atomic partition in the bipartite split, always certified
    analytically.  Weakly trivial: screens the fixed pair in every state.
    Certified analytically for atomic partitions via the per-element
    screening identity and for complement forms of the pair; decided by
    state sampling otherwise.  Weak certificates carry the first probe
    (commuting pair, state) that breaks screening, found by deterministic
    probes plus seeded sampling, or None when the budget finds none.  Never
    certifies beyond what was checked: every sampled verdict carries (seed, n).
    """
    if not is_ccs(state, partition, pair, tol).holds:
        raise PreconditionError("triviality is only defined for partitions that screen off")
    if bipartite is None and partition.dim == 4:
        bipartite = (2, 2)
    product = _product_status(partition, bipartite, tol)
    return _certify(partition, pair, state, cfg or SamplerConfig(), tol, bipartite, product)


def _certify(
    partition: Partition,
    pair: EventPair,
    state,
    cfg: SamplerConfig,
    tol: Tolerance,
    bipartite: tuple | None,
    product: ProductStatus,
) -> tuple:
    """Body of certify_triviality, for a triple already known to screen off,
    given the partition's product status in the bipartite split."""
    rho_ref = density_matrix(state)
    dim = partition.dim

    if dim == 1:
        return (
            TrivialityLevel.STRONG,
            TrivialityCertificate(
                CertificateKind.ANALYTIC,
                "dimension 1: every event is 0 or I, so no pair is correlated in any state",
            ),
        )

    if product is ProductStatus.ALL_PRODUCT:
        return (
            TrivialityLevel.STRONG,
            TrivialityCertificate(
                CertificateKind.ANALYTIC, "product-atomic partition in the declared bipartite split"
            ),
        )

    level, certificate = _weak_triviality(partition, pair, rho_ref, cfg, tol)
    if level is TrivialityLevel.WEAK:
        falsifier = _strong_falsifier(partition, rho_ref, bipartite, cfg, tol)
        certificate = dataclasses.replace(certificate, counterexample=falsifier)
    return level, certificate


def _weak_triviality(
    partition: Partition, pair: EventPair, rho_ref: np.ndarray, cfg: SamplerConfig, tol: Tolerance
) -> tuple:
    """WEAK or NONTRIVIAL for a partition that is not strongly trivial; WEAK
    certificates come without the strong falsifier, which _certify adds."""
    dim = partition.dim
    if partition.is_atomic():
        defects = _atomic_screening_identities(partition, pair, tol)
        bad = [k for k, d in enumerate(defects) if abs(d) > tol.eps_eq]
        if not bad:
            return (
                TrivialityLevel.WEAK,
                TrivialityCertificate(
                    CertificateKind.ANALYTIC,
                    "per-element screening identity holds (state-independent)",
                ),
            )
        # I/d gives every element probability 1/d, so each defect is is_ccs's own delta there
        witness = DensityState.maximally_mixed(dim)
        return (
            TrivialityLevel.NONTRIVIAL,
            TrivialityCertificate(
                CertificateKind.ANALYTIC,
                f"screening identity fails for elements {bad}",
                counterexample=_serialize_counterexample("weak_triviality", witness, None),
            ),
        )

    if _is_complement_form(partition, pair, tol):
        return (
            TrivialityLevel.WEAK,
            TrivialityCertificate(CertificateKind.ANALYTIC, "complement form of the tested pair"),
        )

    stream = _probe_chunks(dim, rho_ref, cfg.seed, 14, cfg.n_states)
    n, witness = _first_failure(stream, partition, pair, tol)
    if witness is not None:
        return (
            TrivialityLevel.NONTRIVIAL,
            TrivialityCertificate(
                CertificateKind.SAMPLED,
                "sampled state breaks screening",
                seed=cfg.seed,
                n=n,
                counterexample=_serialize_counterexample("weak_triviality", witness, None),
            ),
        )
    return (
        TrivialityLevel.WEAK,
        TrivialityCertificate(
            CertificateKind.SAMPLED, "no sampled state broke screening", seed=cfg.seed, n=n
        ),
    )


# ---------------------------------------------------------------------------
# The composite report
# ---------------------------------------------------------------------------

def classify(
    partition: Partition,
    pair: EventPair,
    state,
    cfg: SamplerConfig | None = None,
    tol: Tolerance = DEFAULT_TOL,
    bipartite: tuple | None = None,
) -> CCSReport:
    """Full classification of the triple; see CCSReport for the fields."""
    cfg = cfg or SamplerConfig()
    dim = partition.dim
    if bipartite is None and dim == 4:
        bipartite = (2, 2)

    screening = is_ccs(state, partition, pair, tol)
    product = _product_status(partition, bipartite, tol)

    notes = []
    counterexamples = []
    certificate = None
    if screening.holds:
        triviality, certificate = _certify(partition, pair, state, cfg, tol, bipartite, product)
        if certificate.counterexample is not None:
            counterexamples.append(certificate.counterexample)
        deterministic = (
            Determinism.DETERMINISTIC
            if _deterministic(state, partition, pair, screening, tol)
            else Determinism.INDETERMINISTIC
        )
    else:
        triviality = TrivialityLevel.NOT_A_CCS
        deterministic = Determinism.NOT_A_CCS
        notes.append("partition does not screen off the correlation in this state")

    ltp = satisfies_ltp(state, partition, pair, tol)
    return CCSReport(
        is_ccs=screening.holds,
        rank_profile=partition.rank_profile(),
        atomic=partition.is_atomic(),
        commutation=commutation_class(partition, pair, state, tol),
        product=product,
        triviality=triviality,
        ltp=ltp.holds,
        ltp_residuals=ltp.residuals,
        deterministic=deterministic,
        correlation_class=correlation_class(state, pair, tol),
        zero_probability_elements=screening.zero_probability_elements,
        certificate=certificate,
        counterexamples=tuple(counterexamples),
        notes=tuple(notes),
    )
