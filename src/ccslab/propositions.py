"""Randomized verification of the structural propositions.

Each proposition is one record of the claim table ``_CLAIMS``: statement,
strategy, hypothesis, conclusion, stream tag and instance builders.
Instance i of a claim is built by ``builders[i % len(builders)]`` from the
generator ``rng_for(seed, tag, i)`` at dimension ``_DIMS[i % 5]``; the tags
are 101-107 in claim order.  Each instance is screened once (``is_ccs`` on
its own triple) and the report is passed to both the hypothesis and the
conclusion; hypotheses are verified through the public predicates and the
conclusion is asserted.  Any conclusion failure is recorded with the
instance serialized verbatim.

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
from functools import partial
from typing import Callable, NamedTuple

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
    _deterministic,
    commutation_class,
    correlation_class,
    density_matrix,
    is_ccs,
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

def _random_sectors(rng: np.random.Generator, dim: int, perfect: bool, haar: bool = True) -> tuple:
    """(pair, blocks): a commuting pair diagonal in a basis u (Haar-random, or
    the standard basis when not haar) and blocks[(i, j)], the columns of u
    where A = i and B = j.  Perfect: redrawn until AB or A'B' is nonempty."""
    while True:
        u = haar_unitary(dim, rng) if haar else np.eye(dim, dtype=complex)
        da = random_diagonal_pattern(dim, rng)
        db = random_diagonal_pattern(dim, rng)
        blocks = {(i, j): u[:, (da == i) & (db == j)] for i in (0, 1) for j in (0, 1)}
        if not perfect or blocks[(1, 1)].shape[1] + blocks[(0, 0)].shape[1] > 0:
            return (_pair_from_patterns(u, da, db), blocks)


def _haar_or_identity(k: int, rng: np.random.Generator) -> np.ndarray:
    """A Haar unitary of size k; no draw for k = 1."""
    return haar_unitary(k, rng) if k > 1 else np.eye(1, dtype=complex)


def _random_groups(cols: np.ndarray, rng: np.random.Generator, atomic: bool = False) -> list:
    """Haar-rotate a column block and split it into random (or single-column) groups."""
    k = cols.shape[1]
    if k == 0:
        return []
    rotated = cols @ _haar_or_identity(k, rng)
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
    rotated = cz @ _haar_or_identity(cz.shape[1], rng)
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


def _corrupted_sector_instance(
    rng: np.random.Generator, dim: int, atomic: bool
) -> PropositionInstance:
    """Sector-refined partition for a random commuting pair (atomic: per-sector
    orthonormal bases); a random subset of groups is pushed to zero
    probability and jointly rotated (those elements may then fail to commute,
    but only at zero probability).  Atomic instances carry two extra
    compatible states and the commuting flag in aux."""
    pair, blocks = _random_sectors(rng, dim, perfect=False)
    groups = [g for cols in blocks.values() for g in _random_groups(cols, rng, atomic)]
    corrupt = rng.random(len(groups)) < (0.35 if atomic else 0.4)
    if corrupt.all():
        corrupt[int(rng.integers(len(groups)))] = False
    kept = [g for g, c in zip(groups, corrupt) if not c]
    zeroed = _rotate_jointly([g for g, c in zip(groups, corrupt) if c], rng)
    support = np.concatenate(kept, axis=1)
    state = _state_on_span(support, rng)
    partition = Partition(tuple(_projector(g) for g in kept + zeroed))
    if not atomic:
        return PropositionInstance(state, partition, pair, f"sector-refined dim={dim}")
    return PropositionInstance(
        state,
        partition,
        pair,
        f"weakly commuting atomic dim={dim}",
        aux={
            "extra_states": [_state_on_span(support, rng) for _ in range(2)],
            "fully_commuting": not corrupt.any(),
        },
    )


def _perfect_sector_instance(
    rng: np.random.Generator, dim: int, atomic: bool = False
) -> PropositionInstance:
    """State supported inside the AB / A'B' sectors (hence perfect correlation);
    the partition refines those sectors (commuting with the pair) and the
    rotated zero-probability rest.  Atomic: every group is a single random
    basis vector."""
    pair, blocks = _random_sectors(rng, dim, perfect=True)
    support_groups = []
    for key in ((1, 1), (0, 0)):
        support_groups.extend(_random_groups(blocks[key], rng, atomic))
    off_cols = np.concatenate([blocks[(1, 0)], blocks[(0, 1)]], axis=1)
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
    pair, blocks = _random_sectors(rng, dim, perfect=True)
    p11, p00 = blocks[(1, 1)], blocks[(0, 0)]
    off = np.concatenate([blocks[(1, 0)], blocks[(0, 1)]], axis=1)
    k = off.shape[1]
    if k:
        off = off @ _haar_or_identity(k, rng)
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


def _family_instance(
    rng: np.random.Generator, dim: int, family: Family, contrast: bool = False
) -> PropositionInstance:
    """A rotated two-qubit family over its perfect-correlation state (dim is
    unused).  Contrast: amplitudes bounded away from zero and the Bloch point
    shrunk by 0.8."""
    c, s = _random_cs(rng, bounded_away=contrast)
    r = np.array(_random_ball_point(rng))
    if contrast:
        r = r * 0.8
    params = FamilyParams(c=c, s=s, r1=r[0], r2=r[1], r3=r[2])
    label = "rank-two noncommuting family" if contrast else f"{family.value} family"
    return PropositionInstance(
        associated_state(family, params),
        generate(family, params).partition,
        canonical_events(),
        label,
    )


def _classical_instance(rng: np.random.Generator, dim: int) -> PropositionInstance:
    """Everything diagonal in one basis: the classical embedding."""
    pair, _ = _random_sectors(rng, dim, perfect=False, haar=False)
    partition = Partition.from_vectors(list(np.eye(dim, dtype=complex)))
    state = ginibre_state(dim, rng)
    return PropositionInstance(state, partition, pair, f"classical dim={dim}")


# ---------------------------------------------------------------------------
# Hypothesis / conclusion predicates, given the instance's screening report
# ---------------------------------------------------------------------------

def _commutes_weakly(inst, tol):
    return commutation_class(inst.partition, inst.pair, inst.state, tol) in _WEAKLY


def _is_perfect(inst, tol):
    return correlation_class(inst.state, inst.pair, tol) in PERFECT_CLASSES


def _obeys_ltp(inst, tol):
    return satisfies_ltp(inst.state, inst.partition, inst.pair, tol).holds


def _perfect_ltp_ccs(inst, screening, tol):
    return _is_perfect(inst, tol) and screening.holds and _obeys_ltp(inst, tol)


def _is_deterministic(inst, screening, tol):
    return _deterministic(inst.state, inst.partition, inst.pair, screening, tol)


def _conclusion_wcomm_atomic(inst, screening, tol):
    if not screening.holds:
        return False
    for extra in inst.aux.get("extra_states", ()):
        if not is_ccs(extra, inst.partition, inst.pair, tol).holds:
            return False
    if inst.aux.get("fully_commuting"):
        defects = _atomic_screening_identities(inst.partition, inst.pair, tol)
        if any(abs(d) > tol.eps_eq for d in defects):
            return False
    return True


def _conclusion_contrast(inst, screening, tol):
    return (
        not inst.partition.is_atomic()
        and commutation_class(inst.partition, inst.pair, inst.state, tol)
        is CommutationClass.NONCOMMUTING
        and _obeys_ltp(inst, tol)
        and _is_deterministic(inst, screening, tol)
    )


# ---------------------------------------------------------------------------
# The claim table and the driver
# ---------------------------------------------------------------------------

class _Claim(NamedTuple):
    statement: str
    strategy: str
    hypothesis: Callable  # (inst, screening, tol) -> bool
    conclusion: Callable  # (inst, screening, tol) -> bool
    tag: int
    builders: tuple  # each (rng, dim) -> PropositionInstance


_SECTOR = partial(_perfect_sector_instance, atomic=False)
_ATOMIC = partial(_perfect_sector_instance, atomic=True)
_ATOMIC_FAMILY = partial(_family_instance, family=Family.CCSntratC)

_CLAIMS = {
    "weakly_commuting_ccs_obeys_ltp": _Claim(
        "weakly commuting CCS => law of total probability",
        "sector-refined commuting partitions with zero-probability corruption",
        lambda inst, screening, tol: screening.holds and _commutes_weakly(inst, tol),
        lambda inst, screening, tol: _obeys_ltp(inst, tol),
        101,
        (partial(_corrupted_sector_instance, atomic=False),),
    ),
    "perfect_weakly_commuting_ccs_deterministic": _Claim(
        "perfect correlation + weakly commuting CCS => deterministic",
        "states supported on the joint sectors; sector-refined CCSs and the "
        "atomic rotated family over perfect-correlation states",
        lambda inst, screening, tol: _is_perfect(inst, tol)
        and screening.holds
        and _commutes_weakly(inst, tol),
        _is_deterministic,
        102,
        (_SECTOR, _SECTOR, _ATOMIC_FAMILY),
    ),
    "perfect_ltp_ccs_deterministic": _Claim(
        "perfect correlation + CCS + law of total probability => deterministic",
        "sector constructions including noncommuting rank-mixed partitions "
        "and the rank-two family",
        _perfect_ltp_ccs,
        _is_deterministic,
        103,
        (
            _perfect_nonatomic_noncommuting_instance,
            partial(_family_instance, family=Family.CCS22ntratC),
            _ATOMIC,
            _SECTOR,
        ),
    ),
    "perfect_ltp_atomic_ccs_weakly_commuting": _Claim(
        "perfect correlation + atomic CCS + law of total probability => weakly commuting",
        "atomic sector bases with rotated zero-probability complements; "
        "atomic rotated family over perfect-correlation states",
        lambda inst, screening, tol: inst.partition.is_atomic()
        and _perfect_ltp_ccs(inst, screening, tol),
        lambda inst, screening, tol: _commutes_weakly(inst, tol),
        104,
        (_ATOMIC, _ATOMIC, _ATOMIC_FAMILY),
    ),
    "weakly_commuting_atomic_partition_is_ccs": _Claim(
        "weakly commuting atomic partition => CCS (state-independently when "
        "fully commuting)",
        "per-sector atomic bases, random cross-sector zero-probability corruption, "
        "extra compatible states",
        lambda inst, screening, tol: inst.partition.is_atomic() and _commutes_weakly(inst, tol),
        _conclusion_wcomm_atomic,
        105,
        (partial(_corrupted_sector_instance, atomic=True),),
    ),
    "classical_atomic_partition_strongly_trivial": _Claim(
        "diagonal atomic partition screens every diagonal pair in every state "
        "and obeys the law of total probability",
        "computational-basis partition, random diagonal pairs, random full-rank states",
        lambda inst, screening, tol: True,
        lambda inst, screening, tol: screening.holds and _obeys_ltp(inst, tol),
        106,
        (_classical_instance,),
    ),
    "nonatomic_noncommuting_ltp_contrast": _Claim(
        "the rank-two family over perfect-correlation states is noncommuting, "
        "obeys the law of total probability and is deterministic (atomicity is "
        "essential in the weak-commutation proposition)",
        "rank-two family with both amplitudes bounded away from zero",
        lambda inst, screening, tol: _is_perfect(inst, tol) and screening.holds,
        _conclusion_contrast,
        107,
        (partial(_family_instance, family=Family.CCS22ntratC, contrast=True),),
    ),
}

PROPOSITION_NAMES = tuple(_CLAIMS)


def _instances(claim: _Claim, cfg: SamplerConfig):
    """The claim's seeded stream of cfg.n_states instances."""
    for i in range(cfg.n_states):
        build = claim.builders[i % len(claim.builders)]
        yield build(rng_for(cfg.seed, claim.tag, i), _DIMS[i % len(_DIMS)])


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
    conclusion is then asserted on the instances as given (a determinism
    conclusion raises NotACCSError on an instance that does not screen off).
    """
    if name not in _CLAIMS:
        raise KeyError(f"unknown proposition {name!r}; known: {PROPOSITION_NAMES}")
    claim = _CLAIMS[name]
    cfg = cfg or SamplerConfig()
    own_stream = instances is None
    if own_stream:
        instances = _instances(claim, cfg)
    report = PropositionReport(name, claim.statement, claim.strategy)
    for inst in instances:
        report.instances += 1
        screening = is_ccs(inst.state, inst.partition, inst.pair, tol)
        if verify_hypotheses and not claim.hypothesis(inst, screening, tol):
            if own_stream:
                raise CCSLabError(
                    f"instance construction for {name} violated its own hypotheses "
                    f"({inst.label})"
                )
            report.hypothesis_failures += 1
            continue
        if not claim.conclusion(inst, screening, tol):
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
