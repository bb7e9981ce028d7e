"""Seeded, splittable random generators for states, partitions and event pairs.

Every draw is a pure function of (seed, stream tag, index), realized through
numpy SeedSequence spawning: workers may evaluate disjoint index ranges and
obtain exactly the sequential results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import (
    DensityState,
    EventPair,
    Partition,
    ProjectionEvent,
    PureState,
    ValidationError,
)

__all__ = [
    "SamplingMethod",
    "SamplerConfig",
    "rng_for",
    "haar_vector",
    "haar_unitary",
    "haar_pure_state",
    "ginibre_matrix",
    "ginibre_state",
    "random_state",
    "random_diagonal_pattern",
    "random_commuting_pair",
    "random_product_pair",
    "random_atomic_partition",
    "sample",
]


class SamplingMethod(enum.Enum):
    HAAR_PURE = "HaarPure"
    GINIBRE_MIXED = "GinibreMixed"


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 42
    n_states: int = 1000
    n_event_pairs: int = 200
    method: SamplingMethod = SamplingMethod.HAAR_PURE

    def __post_init__(self):
        if self.n_states < 1 or self.n_event_pairs < 1:
            raise ValidationError("sampler counts must be >= 1")


def rng_for(seed: int, *indices: int) -> np.random.Generator:
    """Generator determined purely by (seed, indices)."""
    return np.random.default_rng((int(seed),) + tuple(int(i) for i in indices))


_STREAM_STATE = 1
_STREAM_PAIR = 2


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform unit vector (normalized complex normal)."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def haar_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    return PureState(haar_vector(dim, rng))


def ginibre_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """The raw draw of ginibre_state: G G^dag / Tr(G G^dag), not validated.

    For callers that validate many draws at once as one stack."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def ginibre_state(dim: int, rng: np.random.Generator) -> DensityState:
    """Full-rank density operator G G^dag / Tr(G G^dag)."""
    return DensityState(ginibre_matrix(dim, rng))


def random_state(dim: int, rng: np.random.Generator, method: SamplingMethod):
    if method is SamplingMethod.HAAR_PURE:
        return haar_pure_state(dim, rng)
    return ginibre_state(dim, rng)


def random_diagonal_pattern(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Nontrivial 0/1 pattern (neither all zeros nor all ones); needs dim >= 2."""
    if dim < 2:
        raise ValidationError(f"a nontrivial 0/1 pattern needs dimension >= 2, got {dim}")
    while True:
        pattern = rng.integers(0, 2, size=dim)
        if 0 < pattern.sum() < dim:
            return pattern


def _projector_from_columns(u: np.ndarray, cols) -> ProjectionEvent:
    block = u[:, list(cols)]
    return ProjectionEvent(block @ block.conj().T)


def random_product_pair(dims: tuple, rng: np.random.Generator) -> EventPair:
    """Bipartite-form pair (P x I, I x Q) with Haar-random nontrivial factors."""
    d1, d2 = dims
    if d1 < 2 or d2 < 2:
        raise ValidationError("each factor needs dimension >= 2")
    u1 = haar_unitary(d1, rng)
    u2 = haar_unitary(d2, rng)
    r1 = int(rng.integers(1, d1))
    r2 = int(rng.integers(1, d2))
    p = _projector_from_columns(u1, range(r1))
    q = _projector_from_columns(u2, range(r2))
    a = ProjectionEvent(np.kron(p.op, np.eye(d2)))
    b = ProjectionEvent(np.kron(np.eye(d1), q.op))
    return EventPair(a, b)


def _pair_from_patterns(u: np.ndarray, da: np.ndarray, db: np.ndarray) -> EventPair:
    """Pair of projections diagonal in the basis u, with 0/1 patterns da and db."""
    a = ProjectionEvent(u @ np.diag(da).astype(complex) @ u.conj().T)
    b = ProjectionEvent(u @ np.diag(db).astype(complex) @ u.conj().T)
    return EventPair(a, b)


def random_commuting_pair(dim: int, rng: np.random.Generator) -> EventPair:
    """General commuting pair: independent diagonal patterns in a Haar basis."""
    u = haar_unitary(dim, rng)
    da = random_diagonal_pattern(dim, rng)
    db = random_diagonal_pattern(dim, rng)
    return _pair_from_patterns(u, da, db)


def random_atomic_partition(dim: int, rng: np.random.Generator) -> Partition:
    """Atomic partition from the columns of a Haar unitary."""
    u = haar_unitary(dim, rng)
    return Partition.from_vectors([u[:, k] for k in range(dim)])


def sample(cfg: SamplerConfig, dim: int = 4, bipartite: tuple = (2, 2)):
    """Deterministic stream: n_states states (per the configured method),
    then n_event_pairs mutually commuting product-form pairs."""
    for i in range(cfg.n_states):
        yield random_state(dim, rng_for(cfg.seed, _STREAM_STATE, i), cfg.method)
    for i in range(cfg.n_event_pairs):
        yield random_product_pair(bipartite, rng_for(cfg.seed, _STREAM_PAIR, i))
