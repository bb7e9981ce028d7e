"""Dimension-generic quantum probability engine.

Events are orthogonal projections on a finite-dimensional Hilbert space,
states are density operators, and probabilities are trace pairings
phi(X) = Tr(rho X).  On top of that this module implements the machinery
for common-cause analysis of a commuting event pair (A, B):

- conditional states and probabilities  phi(X|C) = Tr(rho C X C)/Tr(rho C),
  which is Tr(C X) for rank-one C; _conditionals computes every
  conditional probability in the package, for a stack of states at once
- correlation of A and B, in two algebraically equal forms:
      original:  phi(AB) - phi(A) phi(B)
      balanced:  phi(AB) phi(A'B') - phi(AB') phi(A'B)      (X' = I - X)
- screening-off: a partition {C_k} is a common cause system (CCS) of the
  correlation when the conditional correlation vanishes for every element
  of nonzero probability; zero-probability elements impose no condition.
  _screen decides it for every state of a stack (n, d, d) at once, and is_ccs
  is its n = 1 view: a ScreeningReport whose conditional_joint[k] holds the
  four phi(X|C_k) (None at zero probability); the determinism check reads them
- determinism, commutation classes (commuting / weakly commuting /
  noncommuting), the law of total probability Tr(E(rho) X) = Tr(rho X)
  for the four events generated by A and B, where E is the pinching
  E(X) = sum_k C_k X C_k
- classification of the correlation strength (perfect / maximal, and the
  anticorrelated twins)

Density operators are validated by one shape-generic check, _check_density,
over (..., d, d): DensityState runs it on one matrix, and callers that build
states in bulk run it on the whole stack.

All operations are pure functions; everything numeric is guarded by an
explicit Tolerance (operator equality is Frobenius distance <= eps_eq * dim,
zero-probability detection uses the stricter eps_prob).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CCSLabError",
    "ValidationError",
    "DimensionMismatchError",
    "ZeroProbabilityError",
    "NotACCSError",
    "PreconditionError",
    "Tolerance",
    "DEFAULT_TOL",
    "ProjectionEvent",
    "Partition",
    "DensityState",
    "PureState",
    "EventPair",
    "CommutationClass",
    "CorrelationClass",
    "ScreeningReport",
    "LTPReport",
    "as_operator",
    "dagger",
    "commutator",
    "operators_close",
    "density_matrix",
    "complement",
    "probability",
    "conditional_state",
    "conditional_probability",
    "conditional_expectation",
    "correlation",
    "conditional_correlation",
    "is_ccs",
    "is_deterministic_ccs",
    "commutation_class",
    "check_lemma_wcomm",
    "satisfies_ltp",
    "correlation_class",
]


# ---------------------------------------------------------------------------
# Errors and tolerances
# ---------------------------------------------------------------------------

class CCSLabError(Exception):
    """Base class for all ccslab errors."""


class ValidationError(CCSLabError):
    """An object violates its defining invariants."""


class DimensionMismatchError(ValidationError):
    """Operands act on Hilbert spaces of different dimensions."""


class ZeroProbabilityError(CCSLabError):
    """Conditioning on an event of (numerically) zero probability."""


class NotACCSError(CCSLabError):
    """Operation requires the partition to screen off the correlation."""


class PreconditionError(CCSLabError):
    """A documented precondition of the operation does not hold."""


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds: eps_eq for equality tests, eps_prob for zero-probability tests."""

    eps_eq: float = 1e-9
    eps_prob: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.eps_eq < 1.0) or not (0.0 < self.eps_prob < 1.0):
            raise ValidationError("tolerances must lie strictly between 0 and 1")


DEFAULT_TOL = Tolerance()


# ---------------------------------------------------------------------------
# Operator helpers
# ---------------------------------------------------------------------------

def _square_matrix(m) -> np.ndarray:
    """Coerce to a complex square matrix of dimension >= 1; entries unchecked."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"operator must be a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValidationError("operator dimension must be >= 1")
    return a


def as_operator(m) -> np.ndarray:
    """Coerce to a square, finite, complex matrix (the universal event/state carrier)."""
    a = _square_matrix(m)
    if not np.isfinite(a).all():
        raise ValidationError("operator entries must be finite")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return m.conj().T


def commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return x @ y - y @ x


def operators_close(x: np.ndarray, y: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Equality up to Frobenius distance eps_eq * dim (dimension-scaled threshold)."""
    if x.shape != y.shape:
        raise DimensionMismatchError(f"shape {x.shape} vs {y.shape}")
    return float(np.linalg.norm(x - y)) <= tol.eps_eq * x.shape[0]


def _check_same_dim(*dims: int):
    if len(set(dims)) > 1:
        raise DimensionMismatchError(f"mixed dimensions {dims}")


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProjectionEvent:
    """A quantum event: a Hermitian idempotent operator."""

    op: np.ndarray

    def __post_init__(self):
        op = as_operator(self.op)
        object.__setattr__(self, "op", op)
        n = op.shape[0]
        if np.linalg.norm(op - dagger(op)) > DEFAULT_TOL.eps_eq * n:
            raise ValidationError("projection must be Hermitian")
        if np.linalg.norm(op @ op - op) > DEFAULT_TOL.eps_eq * n:
            raise ValidationError("projection must be idempotent")

    @property
    def dim(self) -> int:
        return self.op.shape[0]

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.op).real)))

    @classmethod
    def identity(cls, dim: int) -> "ProjectionEvent":
        return cls(np.eye(dim, dtype=complex))

    @classmethod
    def zero(cls, dim: int) -> "ProjectionEvent":
        return cls(np.zeros((dim, dim), dtype=complex))

    @classmethod
    def from_vector(cls, vec) -> "ProjectionEvent":
        """Atomic event |v><v| from a (normalized first) nonzero vector."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValidationError("cannot project onto the zero vector")
        v = v / n
        return cls(np.outer(v, v.conj()))

    @classmethod
    def diagonal(cls, pattern) -> "ProjectionEvent":
        """Projection onto the basis vectors flagged by a 0/1 pattern."""
        d = np.asarray(pattern, dtype=float)
        return cls(np.diag(d).astype(complex))


def complement(p: ProjectionEvent) -> ProjectionEvent:
    """Negation of an event: I - P."""
    return ProjectionEvent(np.eye(p.dim, dtype=complex) - p.op)


@dataclass(frozen=True)
class Partition:
    """A partition of the unit: mutually orthogonal projections summing to I."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(
            e if isinstance(e, ProjectionEvent) else ProjectionEvent(e) for e in self.elements
        )
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise ValidationError("partition needs at least one element")
        dims = {e.dim for e in elems}
        if len(dims) > 1:
            raise DimensionMismatchError(f"partition mixes dimensions {dims}")
        n = elems[0].dim
        for j in range(len(elems)):
            for k in range(j + 1, len(elems)):
                if np.linalg.norm(elems[j].op @ elems[k].op) > DEFAULT_TOL.eps_eq * n:
                    raise ValidationError(f"elements {j} and {k} are not orthogonal")
        total = sum(e.op for e in elems)
        if np.linalg.norm(total - np.eye(n)) > DEFAULT_TOL.eps_eq * n:
            raise ValidationError("partition elements must sum to the identity")
        object.__setattr__(self, "_ranks", tuple(e.rank for e in elems))

    @classmethod
    def from_vectors(cls, vectors) -> "Partition":
        """Atomic partition from a complete orthonormal family of vectors."""
        return cls(tuple(ProjectionEvent.from_vector(v) for v in vectors))

    @property
    def dim(self) -> int:
        return self.elements[0].dim

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def rank_profile(self) -> tuple:
        return self._ranks

    def is_atomic(self) -> bool:
        """True when every element is a minimal (rank-one) projection."""
        return all(r == 1 for r in self._ranks)


def _check_density(rho: np.ndarray) -> None:
    """Raise ValidationError unless every matrix of rho, shape (..., d, d), is a
    density operator: finite, Hermitian (Frobenius <= eps_eq * d), PSD
    (eigenvalues >= -eps_eq) and of unit trace (within eps_eq * d).

    The checks apply in that order over the whole stack, so a stack with one
    bad matrix raises the message DensityState gives for that matrix.
    """
    if not np.isfinite(rho).all():
        raise ValidationError("operator entries must be finite")
    bound = DEFAULT_TOL.eps_eq * rho.shape[-1]
    skewed = np.linalg.norm(rho - rho.swapaxes(-1, -2).conj(), axis=(-2, -1)) > bound
    lowest = np.linalg.eigvalsh(rho)[..., 0]
    negative = lowest < -DEFAULT_TOL.eps_eq
    off_trace = np.abs(np.trace(rho, axis1=-2, axis2=-1).real - 1.0) > bound
    if not (skewed | negative | off_trace).any():
        return
    if skewed.any():
        raise ValidationError("density operator must be Hermitian")
    if negative.any():
        raise ValidationError(
            f"density operator not PSD (min eigenvalue {lowest[negative][0]:.3e})"
        )
    raise ValidationError("density operator must have unit trace")


def _check_unit_vectors(v: np.ndarray) -> None:
    """Raise ValidationError unless every vector of v, shape (..., d), is finite
    and of unit norm (within eps_eq)."""
    if not np.isfinite(v).all():
        raise ValidationError("state vector entries must be finite")
    if (np.abs(np.linalg.norm(v, axis=-1) - 1.0) > DEFAULT_TOL.eps_eq).any():
        raise ValidationError("state vector must be normalized")


@dataclass(frozen=True)
class DensityState:
    """A state: positive semidefinite, trace-one operator."""

    rho: np.ndarray

    def __post_init__(self):
        rho = _square_matrix(self.rho)
        object.__setattr__(self, "rho", rho)
        _check_density(rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    @classmethod
    def from_vector(cls, vec) -> "DensityState":
        """Pure state |v><v|; the vector is normalized first."""
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValidationError("state vector must be nonzero")
        v = v / n
        return cls(np.outer(v, v.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityState":
        return cls(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class PureState:
    """A unit state vector."""

    psi: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.psi, dtype=complex).reshape(-1)
        object.__setattr__(self, "psi", v)
        _check_unit_vectors(v)

    @property
    def dim(self) -> int:
        return self.psi.shape[0]

    @classmethod
    def normalized(cls, vec) -> "PureState":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        n = np.linalg.norm(v)
        if n == 0.0:
            raise ValidationError("state vector must be nonzero")
        return cls(v / n)

    def density(self) -> DensityState:
        return DensityState(np.outer(self.psi, self.psi.conj()))


StateLike = "DensityState | PureState"


def density_matrix(state) -> np.ndarray:
    """Density matrix of a DensityState or PureState (raw ndarray)."""
    if isinstance(state, DensityState):
        return state.rho
    if isinstance(state, PureState):
        return np.outer(state.psi, state.psi.conj())
    raise ValidationError(f"not a state: {type(state).__name__}")


@dataclass(frozen=True)
class EventPair:
    """A commuting pair of events; only such pairs have a joint event AB."""

    a: ProjectionEvent
    b: ProjectionEvent

    def __post_init__(self):
        _check_same_dim(self.a.dim, self.b.dim)
        n = self.a.dim
        a, b = self.a.op, self.b.op
        ab = a @ b
        if np.linalg.norm(ab - b @ a) > DEFAULT_TOL.eps_eq * n:
            raise ValidationError("event pair must commute")
        ia = np.eye(n) - a
        ib = np.eye(n) - b
        products = (ab, a @ ib, ia @ b, ia @ ib)
        for x in products:
            x.setflags(write=False)
        object.__setattr__(self, "_products", products)

    @property
    def dim(self) -> int:
        return self.a.dim

    def products(self) -> tuple:
        """The four events generated by the pair: AB, AB', A'B, A'B' (read-only, built once)."""
        return self._products


# ---------------------------------------------------------------------------
# Probabilities and conditioning
# ---------------------------------------------------------------------------

def _trace_pair(rho: np.ndarray, x: np.ndarray) -> float:
    return float(np.trace(rho @ x).real)


def _clamp_probability(value: float, tol: Tolerance) -> float:
    # roundoff inside [-eps, 0) or (1, 1+eps] is clamped; anything worse is a bug
    if -tol.eps_eq <= value < 0.0:
        return 0.0
    if 1.0 < value <= 1.0 + tol.eps_eq:
        return 1.0
    if value < 0.0 or value > 1.0:
        raise ValidationError(f"probability {value} outside [0,1] beyond tolerance")
    return value


def _real_traces(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re Tr(a_i b_j) for stacks a (n, d, d) and b (m, d, d), shape (n, m).

    Re Tr(a b) is the dot product of the float views of a and conj(b^T), so
    each entry sums one pair of contiguous rows, in an order that does not
    depend on n or m: a state reads the same value alone or inside a stack.
    """
    af = np.ascontiguousarray(a).reshape(len(a), -1).view(float)
    bf = np.ascontiguousarray(b.swapaxes(-1, -2)).conj().reshape(len(b), -1).view(float)
    return np.einsum("nx,mx->nm", af, bf)


def _conditionals(rhos: np.ndarray, conds, ranks, events, tol: Tolerance) -> tuple:
    """Conditional probabilities phi(X|C) for a stack of states, every condition
    C_k and every event X_j at once.

    rhos has shape (n, d, d); conds and events are sequences of k events and
    m operators, ranks the k ranks.  Returns (probs, vals, zero): probs[i, k] =
    phi_i(C_k), vals[i, k, j] = phi_i(X_j|C_k), and zero[i, k] = probs[i, k] <=
    eps_prob, where vals is 0 (zero-probability elements impose no condition).
    A rank-one C = |g><g| reads Tr(C X), since C X C = <g|X|g> C, free of the
    u / phi(C) roundoff of the ratio; higher ranks read Tr(rho C X C) / phi(C).
    Values within eps_eq outside [0, 1] are clamped; further out they raise.
    Every conditional probability in the package is computed here.
    """
    c = np.array([e.op for e in conds])
    x = np.array(events)
    one = np.array(ranks) == 1
    probs = _real_traces(rhos, c)
    zero = probs <= tol.eps_prob
    vals = np.empty(zero.shape + (len(x),))
    if one.any():
        vals[:, one] = _real_traces(c[one], x)
    if not one.all():
        ch = c[~one, None]
        cxc = (ch @ x @ ch).reshape(-1, *x.shape[1:])
        vals[:, ~one] = _real_traces(rhos, cxc).reshape(len(rhos), -1, len(x)) / np.where(
            zero[:, ~one], 1.0, probs[:, ~one]
        )[..., None]
    vals[zero] = 0.0
    outside = (vals < -tol.eps_eq) | (vals > 1.0 + tol.eps_eq)
    if outside.any():
        raise ValidationError(f"probability {vals[outside][0]} outside [0,1] beyond tolerance")
    return probs, np.clip(vals, 0.0, 1.0, out=vals), zero


def _masked_rows(vals: np.ndarray, zero: np.ndarray) -> tuple:
    """State 0 of a stacked (n, k, m) result as k tuples, None where zero[0, k]."""
    return tuple(None if z else tuple(v) for z, v in zip(zero[0].tolist(), vals[0].tolist()))


def probability(state, event: ProjectionEvent, tol: Tolerance = DEFAULT_TOL) -> float:
    """phi(X) = Tr(rho X), clamped to [0,1] only within eps_eq of the boundary."""
    rho = density_matrix(state)
    _check_same_dim(rho.shape[0], event.dim)
    return _clamp_probability(_trace_pair(rho, event.op), tol)


def conditional_state(state, cond: ProjectionEvent, tol: Tolerance = DEFAULT_TOL) -> DensityState:
    """State conditioned on an event: C rho C / Tr(rho C)."""
    rho = density_matrix(state)
    _check_same_dim(rho.shape[0], cond.dim)
    p = _trace_pair(rho, cond.op)
    if p <= tol.eps_prob:
        raise ZeroProbabilityError(f"conditioning event has probability {p:.3e}")
    out = cond.op @ rho @ cond.op / p
    out = (out + dagger(out)) / 2.0
    return DensityState(out)


def conditional_probability(
    state, event: ProjectionEvent, cond: ProjectionEvent, tol: Tolerance = DEFAULT_TOL
) -> float:
    """phi(X|C) = Tr(rho C X C) / Tr(rho C)."""
    rho = density_matrix(state)
    _check_same_dim(rho.shape[0], event.dim, cond.dim)
    probs, vals, zero = _conditionals(rho[None], (cond,), (cond.rank,), (event.op,), tol)
    if zero[0, 0]:
        raise ZeroProbabilityError(f"conditioning event has probability {probs[0, 0]:.3e}")
    return float(vals[0, 0, 0])


def conditional_expectation(partition: Partition, x) -> np.ndarray:
    """Pinching induced by the partition: X -> sum_k C_k X C_k."""
    m = as_operator(x if isinstance(x, np.ndarray) else getattr(x, "op", getattr(x, "rho", x)))
    _check_same_dim(partition.dim, m.shape[0])
    out = np.zeros_like(m)
    for c in partition:
        out += c.op @ m @ c.op
    return out


# ---------------------------------------------------------------------------
# Correlation
# ---------------------------------------------------------------------------

def _joint_probs(rho: np.ndarray, pair: EventPair, tol: Tolerance) -> tuple:
    """(phi(AB), phi(AB'), phi(A'B), phi(A'B'))."""
    return tuple(_clamp_probability(_trace_pair(rho, x), tol) for x in pair.products())


def correlation(state, pair: EventPair, tol: Tolerance = DEFAULT_TOL) -> tuple:
    """Correlation of the pair, (original, balanced) forms.

    Both lie in [-1/4, 1/4] and agree up to roundoff; they are returned
    separately so the agreement can be asserted by callers.
    """
    rho = density_matrix(state)
    _check_same_dim(rho.shape[0], pair.dim)
    p00, p01, p10, p11 = _joint_probs(rho, pair, tol)
    pa = _clamp_probability(_trace_pair(rho, pair.a.op), tol)
    pb = _clamp_probability(_trace_pair(rho, pair.b.op), tol)
    original = p00 - pa * pb
    balanced = p00 * p11 - p01 * p10
    return (original, balanced)


def _correlation_forms(joint: np.ndarray) -> np.ndarray:
    """(original, balanced) correlation, shape (..., 2), from the four joint
    probabilities (phi(AB), phi(AB'), phi(A'B), phi(A'B')) along the last axis."""
    p00, p01, p10, p11 = np.moveaxis(joint, -1, 0)
    return np.stack((p00 - (p00 + p01) * (p00 + p10), p00 * p11 - p01 * p10), axis=-1)


def conditional_correlation(
    state, pair: EventPair, cond: ProjectionEvent, tol: Tolerance = DEFAULT_TOL
) -> tuple:
    """Conditional correlation given C, (original, balanced) forms."""
    rho = density_matrix(state)
    _check_same_dim(rho.shape[0], pair.dim, cond.dim)
    probs, joint, zero = _conditionals(rho[None], (cond,), (cond.rank,), pair.products(), tol)
    if zero[0, 0]:
        raise ZeroProbabilityError(f"conditioning event has probability {probs[0, 0]:.3e}")
    return tuple(_correlation_forms(joint[0, 0]).tolist())


# ---------------------------------------------------------------------------
# Screening-off / CCS predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScreeningReport:
    """Per-element screening diagnostics for a (state, partition, pair) triple.

    conditional_deltas[k] is the (original, balanced) conditional correlation
    and conditional_joint[k] the four conditional probabilities
    (phi(AB|C_k), phi(AB'|C_k), phi(A'B|C_k), phi(A'B'|C_k)); both are None
    for elements of probability <= eps_prob (they impose no condition).
    """

    holds: bool
    conditional_deltas: tuple
    element_probabilities: tuple
    zero_probability_elements: tuple
    conditional_joint: tuple

    def __bool__(self) -> bool:
        return self.holds


def _screen(rhos: np.ndarray, partition: Partition, pair: EventPair, tol: Tolerance) -> tuple:
    """Screening of the pair by the partition in every state of a stack rhos, shape (n, d, d).

    Returns (holds, probs, joint, forms, zero): holds[i] for state i;
    probs[i, k] = phi_i(C_k); joint[i, k] the four phi_i(X|C_k) for X in
    (AB, AB', A'B, A'B'); forms[i, k] the (original, balanced) conditional
    correlation; zero[i, k] marks elements of probability <= eps_prob, whose
    joint and forms are 0.  State i is screened iff both forms are within
    eps_eq for every element.
    """
    probs, joint, zero = _conditionals(
        rhos, partition.elements, partition.rank_profile(), pair.products(), tol
    )
    forms = _correlation_forms(joint)
    holds = ~(np.abs(forms) > tol.eps_eq).any(axis=(1, 2))
    return holds, probs, joint, forms, zero


def is_ccs(
    state, partition: Partition, pair: EventPair, tol: Tolerance = DEFAULT_TOL
) -> ScreeningReport:
    """Does the partition screen off the correlation of the pair in this state?

    True iff the conditional correlation vanishes (<= eps_eq) for every element
    of probability > eps_prob.  The n = 1 view of _screen.
    """
    rho = density_matrix(state)
    _check_same_dim(rho.shape[0], partition.dim, pair.dim)
    holds, probs, joint, forms, zero = _screen(rho[None], partition, pair, tol)
    return ScreeningReport(
        bool(holds[0]),
        _masked_rows(forms, zero),
        tuple(probs[0].tolist()),
        tuple(np.flatnonzero(zero[0]).tolist()),
        _masked_rows(joint, zero),
    )


def _binary_within(value: float, tol: Tolerance) -> bool:
    return abs(value) <= tol.eps_eq or abs(value - 1.0) <= tol.eps_eq


def is_deterministic_ccs(
    state, partition: Partition, pair: EventPair, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """True iff every nonzero-probability element drives phi(A|C_k), phi(B|C_k) to 0 or 1.

    Requires the partition to be a CCS of the pair in this state.  The
    equivalent four-event characterisation (the screening report's
    conditional_joint[k] binary for all four generated events) is asserted
    as a cross-check against phi(A|C_k), phi(B|C_k) computed from A and B.
    The two tests may disagree within their slack (binary within eps_eq on
    one side is binary within 2 * eps_eq on the other); the verdict is then
    the two-event one, and only a disagreement beyond it raises.
    """
    return _deterministic(state, partition, pair, is_ccs(state, partition, pair, tol), tol)


def _deterministic(
    state, partition: Partition, pair: EventPair, report: ScreeningReport, tol: Tolerance
) -> bool:
    """Body of is_deterministic_ccs, given the triple's screening report."""
    if not report.holds:
        raise NotACCSError("partition does not screen off the correlation in this state")
    # from A and B themselves: derived from the four products, the cross-check is vacuous
    _, ab, _ = _conditionals(
        density_matrix(state)[None],
        partition.elements,
        partition.rank_profile(),
        (pair.a.op, pair.b.op),
        tol,
    )
    for (pa, pb), joint in zip(ab[0].tolist(), report.conditional_joint):
        if joint is None:
            continue
        two_event = _binary_within(pa, tol) and _binary_within(pb, tol)
        four_event = all(_binary_within(v, tol) for v in joint)
        if two_event != four_event:
            # binary A and B within d give joints within 2d, and the converse
            # holds: only a side that fails at 2 * eps_eq is inconsistent
            failed = joint if two_event else (pa, pb)
            if any(min(abs(v), abs(v - 1.0)) > 2.0 * tol.eps_eq for v in failed):
                raise CCSLabError(
                    "two-event and four-event determinism tests disagree (numerical inconsistency)"
                )
        if not two_event:
            return False
    return True


class CommutationClass(enum.Enum):
    COMMUTING = "commuting"
    WEAKLY_COMMUTING = "weakly_commuting"
    NONCOMMUTING = "noncommuting"


def commutation_class(
    partition: Partition,
    pair: EventPair,
    state=None,
    tol: Tolerance = DEFAULT_TOL,
) -> CommutationClass:
    """Commuting iff [A,C_k] = [B,C_k] = 0 for all k; weakly commuting iff the
    commutators vanish for all elements of probability > eps_prob but not all.

    Without a state only Commuting/Noncommuting can be distinguished.
    """
    _check_same_dim(partition.dim, pair.dim)
    n = partition.dim
    noncommuting = [
        k
        for k, c in enumerate(partition)
        if np.linalg.norm(commutator(pair.a.op, c.op)) > tol.eps_eq * n
        or np.linalg.norm(commutator(pair.b.op, c.op)) > tol.eps_eq * n
    ]
    if not noncommuting:
        return CommutationClass.COMMUTING
    if state is None:
        return CommutationClass.NONCOMMUTING
    rho = density_matrix(state)
    if all(_trace_pair(rho, partition.elements[k].op) <= tol.eps_prob for k in noncommuting):
        return CommutationClass.WEAKLY_COMMUTING
    return CommutationClass.NONCOMMUTING


def check_lemma_wcomm(
    state, partition: Partition, pair: EventPair, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """For a weakly commuting partition, the zero-probability block D satisfies
    phi(DX) = phi(XD) = 0 for all four events generated by the pair.

    Raises PreconditionError when the partition is not (weakly) commuting in
    the given state.
    """
    cls = commutation_class(partition, pair, state, tol)
    if cls is CommutationClass.NONCOMMUTING:
        raise PreconditionError("partition is not weakly commuting in this state")
    rho = density_matrix(state)
    d = np.zeros((partition.dim, partition.dim), dtype=complex)
    for c in partition:
        if _trace_pair(rho, c.op) <= tol.eps_prob:
            d += c.op
    for x in pair.products():
        if abs(np.trace(rho @ d @ x)) > tol.eps_eq or abs(np.trace(rho @ x @ d)) > tol.eps_eq:
            return False
    return True


@dataclass(frozen=True)
class LTPReport:
    """Law-of-total-probability residuals Tr(E(rho)X) - Tr(rho X) for the four events."""

    holds: bool
    residuals: tuple

    def __bool__(self) -> bool:
        return self.holds


def satisfies_ltp(
    state, partition: Partition, pair: EventPair, tol: Tolerance = DEFAULT_TOL
) -> LTPReport:
    """Does the mixture of conditionals recover the unconditional probabilities?

    Checked as Tr(E(rho) X) = Tr(rho X) for X in {AB, AB', A'B, A'B'}.
    """
    rho = density_matrix(state)
    _check_same_dim(rho.shape[0], partition.dim, pair.dim)
    pinched = conditional_expectation(partition, rho)
    residuals = tuple(_trace_pair(pinched, x) - _trace_pair(rho, x) for x in pair.products())
    return LTPReport(all(abs(r) <= tol.eps_eq for r in residuals), residuals)


class CorrelationClass(enum.Enum):
    UNCORRELATED = "uncorrelated"
    CORRELATED = "correlated"
    PERFECTLY_CORRELATED = "perfectly_correlated"
    MAXIMALLY_CORRELATED = "maximally_correlated"
    PERFECTLY_ANTICORRELATED = "perfectly_anticorrelated"
    MAXIMALLY_ANTICORRELATED = "maximally_anticorrelated"


#: Classes implying perfect correlation (maximal subsumes perfect).
PERFECT_CLASSES = frozenset(
    {CorrelationClass.PERFECTLY_CORRELATED, CorrelationClass.MAXIMALLY_CORRELATED}
)
PERFECT_ANTI_CLASSES = frozenset(
    {CorrelationClass.PERFECTLY_ANTICORRELATED, CorrelationClass.MAXIMALLY_ANTICORRELATED}
)


def correlation_class(state, pair: EventPair, tol: Tolerance = DEFAULT_TOL) -> CorrelationClass:
    """Strength classification of the correlation.

    Perfect:  phi(AB') = phi(A'B) = 0 (equivalently phi(AB) = phi(A) = phi(B));
    maximal additionally forces phi(AB) = 1/2.  Anticorrelated twins swap B
    and B'.  The strongest applicable class is reported (maximal subsumes
    perfect).
    """
    rho = density_matrix(state)
    _check_same_dim(rho.shape[0], pair.dim)
    p00, p01, p10, p11 = _joint_probs(rho, pair, tol)
    perfect = p01 <= tol.eps_eq and p10 <= tol.eps_eq
    anti = p00 <= tol.eps_eq and p11 <= tol.eps_eq
    if perfect:
        if abs(p00 - 0.5) <= tol.eps_eq:
            return CorrelationClass.MAXIMALLY_CORRELATED
        return CorrelationClass.PERFECTLY_CORRELATED
    if anti:
        if abs(p01 - 0.5) <= tol.eps_eq:
            return CorrelationClass.MAXIMALLY_ANTICORRELATED
        return CorrelationClass.PERFECTLY_ANTICORRELATED
    delta = p00 * p11 - p01 * p10
    if abs(delta) <= tol.eps_eq:
        return CorrelationClass.UNCORRELATED
    return CorrelationClass.CORRELATED
