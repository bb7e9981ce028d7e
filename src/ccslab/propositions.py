"""Randomized verification of the structural propositions.

Each proposition is checked constructively: instances satisfying the
hypotheses are generated from seeded strategies (documented per check), the
hypotheses are re-verified through the public predicates, and the conclusion
is asserted.  Any conclusion failure is recorded with the instance
serialized verbatim.

The six propositions:

1. weakly_commuting_ccs_obeys_ltp      - a CCS whose nonzero-probability
   elements commute with the pair satisfies the law of total probability.
2. perfect_weakly_commuting_ccs_deterministic - for perfectly correlated
   pairs, weakly commuting CCSs are deterministic.
3. perfect_ltp_ccs_deterministic       - for perfectly correlated pairs,
   CCSs obeying the law of total probability are deterministic (no
   commutation assumption).
4. perfect_ltp_atomic_ccs_weakly_commuting - for perfectly correlated pairs,
   atomic CCSs obeying the law of total probability are weakly commuting.
5. weakly_commuting_atomic_partition_is_ccs - weakly commuting atomic
   partitions screen off; fully commuting ones do so state-independently
   (the per-element screening identity holds).
6. classical_atomic_partition_strongly_trivial - with everything diagonal
   in one basis, the atomic partition screens every diagonal pair in every
   state and the law of total probability always holds.

An extra check, nonatomic_noncommuting_ltp_contrast, confirms that
atomicity is essential in the fourth claim: the rank-two family over the
perfect-correlation states is noncommuting yet obeys the law of total
probability and is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    CCSLabError,
    CommutationClass,
    DensityState,
    EventPair,
    PERFECT_CLASSES,
    Partition,
    ProjectionEvent,
    Tolerance,
    DEFAULT_TOL,
    commutation_class,
    correlation_class,
    density_matrix,
    is_ccs,
    is_deterministic_ccs,
    satisfies_ltp,
)
from .classify import _atomic_screening_identities
from .families import Family, FamilyParams, associated_state, generate
from .sampling import (
    SamplerConfig,
    _pair_from_patterns,
    ginibre_state,
    haar_unitary,
    random_diagonal_pattern,
    rng_for,
)
from .twoqubit import canonical_events

__all__ = [
    "PropositionInstance",
    "PropositionReport",
    "PROPOSITION_NAMES",
    "check_proposition",
    "verify_propositions",
]

_WEAKLY = (CommutationClass.COMMUTING, CommutationClass.WEAKLY_COMMUTING)


@dataclass
class PropositionInstance:
    state: DensityState
    partition: Partition
    pair: EventPair
    label: str = ""
    aux: dict = field(default_factory=dict)


@dataclass
class PropositionReport:
    name: str
    statement: str
    strategy: str
    instances: int = 0
    hypothesis_failures: int = 0
    violations: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.violations == 0 and self.hypothesis_failures == 0


def _serialize_instance(inst: PropositionInstance) -> dict:
    return {
        "label": inst.label,
        "state": np.array(density_matrix(inst.state)),
        "partition": [np.array(c.op) for c in inst.partition],
        "pair_a": np.array(inst.pair.a.op),
        "pair_b": np.array(inst.pair.b.op),
    }


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def _sector_indices(da: np.ndarray, db: np.ndarray) -> dict:
    return {
        (i, j): np.where((da == i) & (db == j))[0]
        for i in (0, 1)
        for j in (0, 1)
    }


def _random_groups(cols: np.ndarray, rng: np.random.Generator, atomic: bool = False) -> list:
    """Haar-rotate a column block and split it into random (or single-column) groups."""
    k = cols.shape[1]
    if k == 0:
        return []
    w = haar_unitary(k, rng) if k > 1 else np.eye(1, dtype=complex)
    rotated = cols @ w
    if atomic:
        return [rotated[:, [j]] for j in range(k)]
    n_cuts = int(rng.integers(0, k))
    if n_cuts == 0:
        return [rotated]
    cuts = np.sort(rng.choice(np.arange(1, k), size=n_cuts, replace=False))
    return np.split(rotated, cuts, axis=1)


def _projector(cols: np.ndarray) -> ProjectionEvent:
    return ProjectionEvent(cols @ cols.conj().T)


def _state_on_span(cols: np.ndarray, rng: np.random.Generator) -> DensityState:
    k = cols.shape[1]
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    sigma = g @ g.conj().T
    sigma = sigma / np.trace(sigma).real
    return DensityState(cols @ sigma @ cols.conj().T)


def _rotate_jointly(groups: list, rng: np.random.Generator) -> list:
    """Haar-rotate the joint span of the groups, keeping the group sizes."""
    if not groups:
        return []
    cz = np.concatenate(groups, axis=1)
    w = haar_unitary(cz.shape[1], rng) if cz.shape[1] > 1 else np.eye(1, dtype=complex)
    rotated = cz @ w
    sizes = np.cumsum([g.shape[1] for g in groups])[:-1]
    return np.split(rotated, sizes, axis=1)


def _random_ball_point(rng: np.random.Generator) -> tuple:
    v = rng.standard_normal(3)
    v = v / np.linalg.norm(v)
    return tuple(v * rng.random() ** (1.0 / 3.0))


def _random_cs(rng: np.random.Generator, bounded_away: bool = False) -> tuple:
    lo = 0.3 if bounded_away else 0.0
    phi = lo + (np.pi / 2.0 - 2.0 * lo) * rng.random()
    alpha, beta = 2.0 * np.pi * rng.random(2)
    return (np.cos(phi) * np.exp(1j * alpha), np.sin(phi) * np.exp(1j * beta))


_DIMS = (4, 4, 4, 6, 8)


def _weakly_commuting_ccs_instance(rng: np.random.Generator, dim: int) -> PropositionInstance:
    """Sector-refined partition for a random commuting pair; a random subset of
    blocks is pushed to zero probability and jointly rotated (those elements
    may then fail to commute, but only at zero probability)."""
    u = haar_unitary(dim, rng)
    da = random_diagonal_pattern(dim, rng)
    db = random_diagonal_pattern(dim, rng)
    pair = _pair_from_patterns(u, da, db)
    groups = []
    for idx in _sector_indices(da, db).values():
        groups.extend(_random_groups(u[:, idx], rng))
    corrupt = rng.random(len(groups)) < 0.4
    if corrupt.all():
        corrupt[int(rng.integers(len(groups)))] = False
    kept = [g for g, c in zip(groups, corrupt) if not c]
    zeroed = _rotate_jointly([g for g, c in zip(groups, corrupt) if c], rng)
    state = _state_on_span(np.concatenate(kept, axis=1), rng)
    partition = Partition(tuple(_projector(g) for g in kept + zeroed))
    return PropositionInstance(state, partition, pair, f"sector-refined dim={dim}")


def _perfect_sectors(rng: np.random.Generator, dim: int) -> tuple:
    """Commuting pair plus sector split with a nonempty perfect block."""
    while True:
        u = haar_unitary(dim, rng)
        da = random_diagonal_pattern(dim, rng)
        db = random_diagonal_pattern(dim, rng)
        sectors = _sector_indices(da, db)
        if len(sectors[(1, 1)]) + len(sectors[(0, 0)]) > 0:
            return (u, da, db, sectors)


def _perfect_sector_instance(
    rng: np.random.Generator, dim: int, atomic: bool = False
) -> PropositionInstance:
    """State supported inside the AB / A'B' sectors (hence perfect correlation);
    the partition refines those sectors (commuting with the pair) and the
    rotated zero-probability rest.  Atomic: every group is a single random
    basis vector."""
    u, da, db, sectors = _perfect_sectors(rng, dim)
    pair = _pair_from_patterns(u, da, db)
    support_groups = []
    for key in ((1, 1), (0, 0)):
        support_groups.extend(_random_groups(u[:, sectors[key]], rng, atomic))
    off_cols = u[:, np.concatenate([sectors[(1, 0)], sectors[(0, 1)]])]
    zeroed = _rotate_jointly(_random_groups(off_cols, rng, atomic), rng)
    state = _state_on_span(np.concatenate(support_groups, axis=1), rng)
    partition = Partition(tuple(_projector(g) for g in support_groups + zeroed))
    label = "atomic" if atomic else "sector-refined"
    return PropositionInstance(state, partition, pair, f"perfect {label} dim={dim}")


def _perfect_nonatomic_noncommuting_instance(
    rng: np.random.Generator, dim: int
) -> PropositionInstance:
    """Rank-mixed two-element partition: each element is one perfect sector
    plus a rotated chunk of the zero-probability complement, so the elements
    have nonzero probability and need not commute with the pair."""
    u, da, db, sectors = _perfect_sectors(rng, dim)
    pair = _pair_from_patterns(u, da, db)
    p11 = u[:, sectors[(1, 1)]]
    p00 = u[:, sectors[(0, 0)]]
    off = u[:, np.concatenate([sectors[(1, 0)], sectors[(0, 1)]])]
    k = off.shape[1]
    if k:
        w = haar_unitary(k, rng) if k > 1 else np.eye(1, dtype=complex)
        off = off @ w
        split = int(rng.integers(0, k + 1))
        r_plus, r_minus = off[:, :split], off[:, split:]
    else:
        r_plus = r_minus = off
    c_plus = np.concatenate([p11, r_plus], axis=1)
    c_minus = np.concatenate([p00, r_minus], axis=1)
    elements = [_projector(c) for c in (c_plus, c_minus) if c.shape[1] > 0]
    support = np.concatenate([p11, p00], axis=1)
    state = _state_on_span(support, rng)
    return PropositionInstance(
        state, Partition(tuple(elements)), pair, f"perfect rank-mixed dim={dim}"
    )


def _family_perfect_instance(rng: np.random.Generator, rank_two: bool) -> PropositionInstance:
    c, s = _random_cs(rng)
    r1, r2, r3 = _random_ball_point(rng)
    family = Family.CCS22ntratC if rank_two else Family.CCSntratC
    params = FamilyParams(c=c, s=s, r1=r1, r2=r2, r3=r3)
    inst = generate(family, params)
    return PropositionInstance(
        associated_state(family, params),
        inst.partition,
        canonical_events(),
        f"{family.value} family",
    )


def _wcomm_atomic_instance(rng: np.random.Generator, dim: int) -> PropositionInstance:
    """Weakly commuting atomic partition: per-sector orthonormal bases, then a
    random cross-sector subset rotated into noncommuting vectors of zero
    probability.  aux carries extra compatible states and the commuting flag."""
    u = haar_unitary(dim, rng)
    da = random_diagonal_pattern(dim, rng)
    db = random_diagonal_pattern(dim, rng)
    pair = _pair_from_patterns(u, da, db)
    vectors = []
    for idx in _sector_indices(da, db).values():
        vectors.extend(_random_groups(u[:, idx], rng, atomic=True))
    corrupt = rng.random(len(vectors)) < 0.35
    if corrupt.all():
        corrupt[int(rng.integers(len(vectors)))] = False
    kept = [v for v, c in zip(vectors, corrupt) if not c]
    zeroed = _rotate_jointly([v for v, c in zip(vectors, corrupt) if c], rng)
    support = np.concatenate(kept, axis=1)
    state = _state_on_span(support, rng)
    extra_states = [_state_on_span(support, rng) for _ in range(2)]
    partition = Partition(tuple(_projector(v) for v in kept + zeroed))
    return PropositionInstance(
        state,
        partition,
        pair,
        f"weakly commuting atomic dim={dim}",
        aux={"extra_states": extra_states, "fully_commuting": not corrupt.any()},
    )


def _classical_instance(rng: np.random.Generator, dim: int) -> PropositionInstance:
    """Everything diagonal in one basis: the classical embedding."""
    da = random_diagonal_pattern(dim, rng)
    db = random_diagonal_pattern(dim, rng)
    pair = _pair_from_patterns(np.eye(dim, dtype=complex), da, db)
    partition = Partition.from_vectors(list(np.eye(dim, dtype=complex)))
    state = ginibre_state(dim, rng)
    return PropositionInstance(state, partition, pair, f"classical dim={dim}")


def _contrast_instance(rng: np.random.Generator) -> PropositionInstance:
    c, s = _random_cs(rng, bounded_away=True)
    x = np.array(_random_ball_point(rng)) * 0.8
    params = FamilyParams(c=c, s=s, r1=x[0], r2=x[1], r3=x[2])
    inst = generate(Family.CCS22ntratC, params)
    return PropositionInstance(
        associated_state(Family.CCS22ntratC, params),
        inst.partition,
        canonical_events(),
        "rank-two noncommuting family",
    )


# ---------------------------------------------------------------------------
# Hypothesis / conclusion predicates
# ---------------------------------------------------------------------------

def _is_weakly_commuting_ccs(inst, tol):
    return (
        is_ccs(inst.state, inst.partition, inst.pair, tol).holds
        and commutation_class(inst.partition, inst.pair, inst.state, tol) in _WEAKLY
    )


def _is_perfect(inst, tol):
    return correlation_class(inst.state, inst.pair, tol) in PERFECT_CLASSES


def _obeys_ltp(inst, tol):
    return satisfies_ltp(inst.state, inst.partition, inst.pair, tol).holds


def _is_deterministic(inst, tol):
    return is_deterministic_ccs(inst.state, inst.partition, inst.pair, tol)


def _conclusion_wcomm_atomic(inst, tol):
    if not is_ccs(inst.state, inst.partition, inst.pair, tol).holds:
        return False
    for extra in inst.aux.get("extra_states", ()):
        if not is_ccs(extra, inst.partition, inst.pair, tol).holds:
            return False
    if inst.aux.get("fully_commuting"):
        defects = _atomic_screening_identities(inst.partition, inst.pair, tol)
        if any(abs(d) > tol.eps_eq for d in defects):
            return False
    return True


def _conclusion_classical(inst, tol):
    return (
        is_ccs(inst.state, inst.partition, inst.pair, tol).holds
        and satisfies_ltp(inst.state, inst.partition, inst.pair, tol).holds
    )


def _conclusion_contrast(inst, tol):
    return (
        not inst.partition.is_atomic()
        and commutation_class(inst.partition, inst.pair, inst.state, tol)
        is CommutationClass.NONCOMMUTING
        and satisfies_ltp(inst.state, inst.partition, inst.pair, tol).holds
        and is_deterministic_ccs(inst.state, inst.partition, inst.pair, tol)
    )


# ---------------------------------------------------------------------------
# Streams and the driver
# ---------------------------------------------------------------------------

def _stream_commltp(cfg, n):
    for i in range(n):
        rng = rng_for(cfg.seed, 101, i)
        yield _weakly_commuting_ccs_instance(rng, _DIMS[i % len(_DIMS)])


def _stream_classmaxodet(cfg, n):
    for i in range(n):
        rng = rng_for(cfg.seed, 102, i)
        if i % 3 == 2:
            yield _family_perfect_instance(rng, rank_two=False)
        else:
            yield _perfect_sector_instance(rng, _DIMS[i % len(_DIMS)])


def _stream_ltp_pc_determ(cfg, n):
    for i in range(n):
        rng = rng_for(cfg.seed, 103, i)
        pick = i % 4
        if pick == 0:
            yield _perfect_nonatomic_noncommuting_instance(rng, _DIMS[i % len(_DIMS)])
        elif pick == 1:
            yield _family_perfect_instance(rng, rank_two=True)
        elif pick == 2:
            yield _perfect_sector_instance(rng, _DIMS[i % len(_DIMS)], atomic=True)
        else:
            yield _perfect_sector_instance(rng, _DIMS[i % len(_DIMS)])


def _stream_atomic_wcomm(cfg, n):
    for i in range(n):
        rng = rng_for(cfg.seed, 104, i)
        if i % 3 == 2:
            yield _family_perfect_instance(rng, rank_two=False)
        else:
            yield _perfect_sector_instance(rng, _DIMS[i % len(_DIMS)], atomic=True)


def _stream_wcomm_atomic_ccs(cfg, n):
    for i in range(n):
        rng = rng_for(cfg.seed, 105, i)
        yield _wcomm_atomic_instance(rng, _DIMS[i % len(_DIMS)])


def _stream_classical(cfg, n):
    for i in range(n):
        rng = rng_for(cfg.seed, 106, i)
        yield _classical_instance(rng, _DIMS[i % len(_DIMS)])


def _stream_contrast(cfg, n):
    for i in range(n):
        yield _contrast_instance(rng_for(cfg.seed, 107, i))


_PROPOSITIONS = {
    "weakly_commuting_ccs_obeys_ltp": (
        "weakly commuting CCS => law of total probability",
        "sector-refined commuting partitions with zero-probability corruption",
        _is_weakly_commuting_ccs,
        _obeys_ltp,
        _stream_commltp,
    ),
    "perfect_weakly_commuting_ccs_deterministic": (
        "perfect correlation + weakly commuting CCS => deterministic",
        "states supported on the joint sectors; sector-refined CCSs and the "
        "atomic rotated family over perfect-correlation states",
        lambda inst, tol: _is_perfect(inst, tol) and _is_weakly_commuting_ccs(inst, tol),
        _is_deterministic,
        _stream_classmaxodet,
    ),
    "perfect_ltp_ccs_deterministic": (
        "perfect correlation + CCS + law of total probability => deterministic",
        "sector constructions including noncommuting rank-mixed partitions "
        "and the rank-two family",
        lambda inst, tol: _is_perfect(inst, tol)
        and is_ccs(inst.state, inst.partition, inst.pair, tol).holds
        and _obeys_ltp(inst, tol),
        _is_deterministic,
        _stream_ltp_pc_determ,
    ),
    "perfect_ltp_atomic_ccs_weakly_commuting": (
        "perfect correlation + atomic CCS + law of total probability => weakly commuting",
        "atomic sector bases with rotated zero-probability complements; "
        "atomic rotated family over perfect-correlation states",
        lambda inst, tol: inst.partition.is_atomic()
        and _is_perfect(inst, tol)
        and is_ccs(inst.state, inst.partition, inst.pair, tol).holds
        and _obeys_ltp(inst, tol),
        lambda inst, tol: commutation_class(inst.partition, inst.pair, inst.state, tol)
        in _WEAKLY,
        _stream_atomic_wcomm,
    ),
    "weakly_commuting_atomic_partition_is_ccs": (
        "weakly commuting atomic partition => CCS (state-independently when "
        "fully commuting)",
        "per-sector atomic bases, random cross-sector zero-probability corruption, "
        "extra compatible states",
        lambda inst, tol: inst.partition.is_atomic()
        and commutation_class(inst.partition, inst.pair, inst.state, tol) in _WEAKLY,
        _conclusion_wcomm_atomic,
        _stream_wcomm_atomic_ccs,
    ),
    "classical_atomic_partition_strongly_trivial": (
        "diagonal atomic partition screens every diagonal pair in every state "
        "and obeys the law of total probability",
        "computational-basis partition, random diagonal pairs, random full-rank states",
        lambda inst, tol: True,
        _conclusion_classical,
        _stream_classical,
    ),
    "nonatomic_noncommuting_ltp_contrast": (
        "the rank-two family over perfect-correlation states is noncommuting, "
        "obeys the law of total probability and is deterministic (atomicity is "
        "essential in the weak-commutation proposition)",
        "rank-two family with both amplitudes bounded away from zero",
        lambda inst, tol: _is_perfect(inst, tol)
        and is_ccs(inst.state, inst.partition, inst.pair, tol).holds,
        _conclusion_contrast,
        _stream_contrast,
    ),
}

PROPOSITION_NAMES = tuple(_PROPOSITIONS)


def check_proposition(
    name: str,
    instances=None,
    cfg: SamplerConfig | None = None,
    tol: Tolerance = DEFAULT_TOL,
    verify_hypotheses: bool = True,
    max_recorded: int = 10,
) -> PropositionReport:
    """Run one proposition check.

    With the default stream, a hypothesis failure indicates a broken
    construction and raises.  Supplying ``instances`` with
    ``verify_hypotheses=False`` allows fault-injection self-tests: the
    conclusion is then asserted on the instances as given.
    """
    if name not in _PROPOSITIONS:
        raise KeyError(f"unknown proposition {name!r}; known: {PROPOSITION_NAMES}")
    statement, strategy, hypothesis, conclusion, default_stream = _PROPOSITIONS[name]
    cfg = cfg or SamplerConfig()
    own_stream = instances is None
    if own_stream:
        instances = default_stream(cfg, cfg.n_states)
    report = PropositionReport(name, statement, strategy)
    for inst in instances:
        report.instances += 1
        if verify_hypotheses and not hypothesis(inst, tol):
            if own_stream:
                raise CCSLabError(
                    f"instance construction for {name} violated its own hypotheses "
                    f"({inst.label})"
                )
            report.hypothesis_failures += 1
            continue
        if not conclusion(inst, tol):
            report.violations += 1
            if len(report.counterexamples) < max_recorded:
                report.counterexamples.append(_serialize_instance(inst))
    return report


def verify_propositions(
    cfg: SamplerConfig | None = None, tol: Tolerance = DEFAULT_TOL
) -> dict:
    """All proposition reports, keyed by name."""
    cfg = cfg or SamplerConfig()
    return {name: check_proposition(name, cfg=cfg, tol=tol) for name in PROPOSITION_NAMES}
