"""Two-qubit specialization: canonical events and determinant criteria.

Conventions (binding for every formula in this module):

- amplitudes are ordered (00, 01, 10, 11), i.e. index i*2+j for basis ket |ij>
- the canonical commuting pair is A = |0><0| (x) I, B = I (x) |0><0|
- |+> = (+|0> + |1>)/sqrt(2) and |-> = (-|0> + |1>)/sqrt(2); note the sign
  sits on |0>, which differs from the more common convention

Four 2x2 determinants of the amplitude matrix M[i,j] = <ij|v> drive the
analysis:

- det(M) = 0            iff v is a product vector          (productness)
- det(|M|^2) = 0        iff |v><v| screens off A,B          (screening)
- for a state vector psi, det(M) = 0 iff psi is separable, and
  det(|M|^2) equals the correlation of A and B in psi
- 4|det(M)|^2 is the squared concurrence of a pure state

The productness/screening pair yields the construction of nonproduct
partitions that still screen for every state: conjugate a product atomic
partition by a nonproduct diagonal unitary (phases with
p00 + p11 != p01 + p10), which spoils det(M) but preserves det(|M|^2).

The canonical-pair conditionals and law-of-total-probability check are views
over core; the determinants stay as independent oracles.
"""

from __future__ import annotations

import numpy as np

from .core import (
    DEFAULT_TOL,
    DensityState,
    DimensionMismatchError,
    EventPair,
    LTPReport,
    Partition,
    PreconditionError,
    ProjectionEvent,
    PureState,
    Tolerance,
    ValidationError,
    _conditionals,
    _masked_rows,
    density_matrix,
    satisfies_ltp,
)

__all__ = [
    "KET_PLUS",
    "KET_MINUS",
    "TWIST_PHASES",
    "canonical_events",
    "basis_ket",
    "product_ket",
    "local_rotation",
    "diagonal_unitary",
    "amplitudes",
    "productness_determinant",
    "screening_determinant",
    "separability_determinant",
    "correlation_determinant",
    "concurrence_squared",
    "schmidt_rank",
    "product_factors",
    "ConditionalProbabilityTable",
    "conditional_probs_canonical",
    "ltp_check_2x2",
    "perfect_correlation_state",
    "perfect_correlation_pure",
    "nonproduct_from_product",
    "is_diagonal_computational",
    "principal_vector",
]

DIM = 4

KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([-1.0, 1.0], dtype=complex) / np.sqrt(2.0)

#: Diagonal phases (0, 0, 0, pi): the simplest nonproduct diagonal unitary.
TWIST_PHASES = (0.0, 0.0, 0.0, np.pi)


def basis_ket(i: int, j: int) -> np.ndarray:
    """Computational basis ket |ij> as a 4-vector."""
    v = np.zeros(DIM, dtype=complex)
    v[2 * i + j] = 1.0
    return v


def product_ket(first, second) -> np.ndarray:
    """Tensor product of two single-qubit kets."""
    return np.kron(np.asarray(first, dtype=complex), np.asarray(second, dtype=complex))


def canonical_events() -> EventPair:
    """The canonical pair: first-qubit |0> event and second-qubit |0> event."""
    a = ProjectionEvent(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    b = ProjectionEvent(np.diag([1.0, 0.0, 1.0, 0.0]).astype(complex))
    return EventPair(a, b)


def local_rotation(theta: float) -> np.ndarray:
    """One-parameter single-qubit rotation taking |0>,|1> to |+>,|-> at theta = pi/2.

    U = c|0><0| - s|0><1| + s|1><0| + c|1><1|, c = cos(theta/2), s = sin(theta/2).
    """
    c = np.cos(theta / 2.0)
    s = np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def diagonal_unitary(phases) -> np.ndarray:
    """Diagonal unitary diag(exp(i p_00), exp(i p_01), exp(i p_10), exp(i p_11))."""
    p = np.asarray(phases, dtype=float)
    if p.shape != (4,):
        raise ValidationError("need exactly four phases (p00, p01, p10, p11)")
    return np.diag(np.exp(1j * p))


def amplitudes(v) -> np.ndarray:
    """Coerce a PureState or array-like to a unit 4-vector of amplitudes."""
    if isinstance(v, PureState):
        a = v.psi
    else:
        a = np.asarray(v, dtype=complex).reshape(-1)
    if a.shape != (4,):
        raise DimensionMismatchError(f"expected 4 amplitudes, got {a.shape}")
    if abs(np.linalg.norm(a) - 1.0) > DEFAULT_TOL.eps_eq:
        raise ValidationError("two-qubit vector must be normalized")
    return a


def productness_determinant(v) -> complex:
    """<00|v><11|v> - <01|v><10|v>; zero iff v is a product vector."""
    a = amplitudes(v)
    return complex(a[0] * a[3] - a[1] * a[2])


def screening_determinant(v) -> float:
    """|<00|v>|^2 |<11|v>|^2 - |<01|v>|^2 |<10|v>|^2.

    Equals the conditional correlation of the canonical pair given the atomic
    condition |v><v|, for any state giving it nonzero probability; zero iff
    that condition screens off.
    """
    a = np.abs(amplitudes(v)) ** 2
    return float(a[0] * a[3] - a[1] * a[2])


def separability_determinant(psi) -> complex:
    """Same determinant as productness, read on a state vector: zero iff separable."""
    return productness_determinant(psi)


def correlation_determinant(psi) -> float:
    """Correlation of the canonical pair in the pure state psi."""
    return screening_determinant(psi)


def concurrence_squared(psi) -> float:
    """Squared concurrence of a pure two-qubit state: 4 |det of amplitude matrix|^2."""
    return float(4.0 * abs(separability_determinant(psi)) ** 2)


def schmidt_rank(v, sv_tol: float = 1e-10) -> int:
    """Independent rank oracle: number of singular values of the amplitude
    matrix above sv_tol (threshold deliberately decoupled from Tolerance)."""
    m = amplitudes(v).reshape(2, 2)
    return int(np.sum(np.linalg.svd(m, compute_uv=False) > sv_tol))


def product_factors(v, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Split a product vector into its qubit factors (alpha, beta).

    Raises PreconditionError when v is not a product vector.
    """
    a = amplitudes(v)
    if abs(productness_determinant(a)) > tol.eps_eq:
        raise PreconditionError("vector is not a product vector")
    m = a.reshape(2, 2)
    u, s, vh = np.linalg.svd(m)
    return (u[:, 0] * s[0], vh[0, :].copy())


def principal_vector(proj: ProjectionEvent, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unit vector spanning a rank-one projection."""
    if proj.rank != 1:
        raise PreconditionError(f"projection has rank {proj.rank}, expected 1")
    evals, evecs = np.linalg.eigh(proj.op)
    if abs(evals[-1] - 1.0) > tol.eps_eq * proj.dim:
        raise ValidationError("rank-one projection has top eigenvalue far from 1")
    return evecs[:, -1]


# ---------------------------------------------------------------------------
# Conditional probabilities and the law of total probability: views over core
# ---------------------------------------------------------------------------

class ConditionalProbabilityTable:
    """Per-element (phi(A|C_k), phi(B|C_k)) for the canonical pair.

    entries[k] is a (pA, pB) pair, or None when the element has probability
    <= eps_prob (the conditional is undefined there).
    """

    def __init__(self, entries, probabilities):
        self.entries = tuple(entries)
        self.probabilities = tuple(probabilities)

    def __getitem__(self, k):
        return self.entries[k]

    def __len__(self):
        return len(self.entries)

    def defined(self, k: int) -> bool:
        return self.entries[k] is not None


def conditional_probs_canonical(
    state, partition: Partition, tol: Tolerance = DEFAULT_TOL
) -> ConditionalProbabilityTable:
    """Conditional probabilities of the canonical events given each element.

    A view over core's rule: a rank-one element |g><g| gives the
    state-independent (<g|A|g>, <g|B|g>) wherever its probability > eps_prob.
    """
    rho = density_matrix(state)
    if partition.dim != DIM or rho.shape[0] != DIM:
        raise DimensionMismatchError("canonical conditional probabilities need dim 4")
    pair = canonical_events()
    probs, vals, zero = _conditionals(
        rho[None], partition.elements, partition.rank_profile(), (pair.a.op, pair.b.op), tol
    )
    return ConditionalProbabilityTable(_masked_rows(vals, zero), tuple(probs[0].tolist()))


def ltp_check_2x2(state, partition: Partition, tol: Tolerance = DEFAULT_TOL) -> LTPReport:
    """Law of total probability for the canonical pair: diag(E(rho)) = diag(rho).

    The products AB, AB', A'B, A'B' are the diagonal projections, so core's
    residuals are the four diagonal differences, ordered (00, 01, 10, 11).
    """
    if partition.dim != DIM:
        raise DimensionMismatchError("two-qubit law-of-total-probability check needs dim 4")
    return satisfies_ltp(state, partition, canonical_events(), tol)


# ---------------------------------------------------------------------------
# Perfect-correlation states
# ---------------------------------------------------------------------------

def perfect_correlation_state(r1: float, r2: float, r3: float) -> DensityState:
    """The states in which the canonical pair is perfectly correlated.

    rho is supported on span{|00>, |11>} with Bloch-like coefficients
    (r1, r2, r3), r1^2 + r2^2 + r3^2 <= 1.  Then phi(AB) = (1 + r3)/2 and the
    correlation is (1 - r3^2)/4, maximal at r3 = 0.  r3 = +-1 is accepted
    (degenerate: the correlation vanishes but the perfect-correlation
    condition still holds).
    """
    if r1 * r1 + r2 * r2 + r3 * r3 > 1.0 + DEFAULT_TOL.eps_eq:
        raise ValidationError("coefficients must satisfy r1^2 + r2^2 + r3^2 <= 1")
    rho = np.zeros((DIM, DIM), dtype=complex)
    rho[0, 0] = (1.0 + r3) / 2.0
    rho[0, 3] = (r1 - 1j * r2) / 2.0
    rho[3, 0] = (r1 + 1j * r2) / 2.0
    rho[3, 3] = (1.0 - r3) / 2.0
    return DensityState(rho)


def perfect_correlation_pure(x: complex, y: complex) -> PureState:
    """Pure perfect-correlation state x|00> + y|11>, |x|^2 + |y|^2 = 1."""
    if abs(abs(x) ** 2 + abs(y) ** 2 - 1.0) > DEFAULT_TOL.eps_eq:
        raise ValidationError("amplitudes must satisfy |x|^2 + |y|^2 = 1")
    v = np.zeros(DIM, dtype=complex)
    v[0] = x
    v[3] = y
    return PureState.normalized(v)


# ---------------------------------------------------------------------------
# Nonproduct screening partitions from product ones
# ---------------------------------------------------------------------------

def nonproduct_from_product(products, phases, tol: Tolerance = DEFAULT_TOL) -> Partition:
    """Conjugate a product atomic partition by a nonproduct diagonal unitary.

    The inputs must be four product vectors forming an atomic partition with
    all single-qubit amplitudes nonzero, and the phases must satisfy
    p00 + p11 != p01 + p10 (otherwise the diagonal unitary is itself a
    product and changes nothing).  The output partition screens off the
    canonical pair for every state (the screening determinant of each
    element is unchanged) while every element becomes nonproduct.
    """
    vecs = [amplitudes(v) for v in products]
    if len(vecs) != DIM:
        raise PreconditionError("need exactly four product vectors")
    for v in vecs:
        alpha, beta = product_factors(v, tol)  # raises if not product
        if np.min(np.abs(alpha)) <= tol.eps_eq or np.min(np.abs(beta)) <= tol.eps_eq:
            raise PreconditionError("every single-qubit amplitude must be nonzero")
    p = np.asarray(phases, dtype=float)
    if p.shape != (4,):
        raise PreconditionError("need exactly four phases")
    if abs(np.exp(1j * (p[0] + p[3])) - np.exp(1j * (p[1] + p[2]))) <= tol.eps_eq:
        raise PreconditionError("phases give a product diagonal unitary (p00+p11 = p01+p10)")
    v_op = diagonal_unitary(p)
    out = Partition.from_vectors([v_op @ v for v in vecs])
    for elem, orig in zip(out, vecs):
        twisted = principal_vector(elem, tol)
        if abs(screening_determinant(twisted) - screening_determinant(orig)) > tol.eps_eq:
            raise ValidationError("screening determinant changed under the diagonal unitary")
        if abs(productness_determinant(twisted)) <= tol.eps_eq:
            raise ValidationError("element stayed product despite the nonproduct phases")
    return out


def is_diagonal_computational(c: ProjectionEvent, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the projection is diagonal in the computational basis.

    Equivalent to commuting with both canonical events.
    """
    if c.dim != DIM:
        raise DimensionMismatchError("computational-diagonal test needs dim 4")
    off = c.op - np.diag(np.diag(c.op))
    return bool(np.max(np.abs(off)) <= tol.eps_eq)
