"""The stacked screening kernel against a definition-level reference."""

import numpy as np
import pytest

import oracle
from ccslab.core import (
    DEFAULT_TOL,
    DensityState,
    EventPair,
    Partition,
    ProjectionEvent,
    _screen,
    is_ccs,
)
from ccslab.sampling import (
    ginibre_state,
    haar_pure_state,
    haar_unitary,
    random_commuting_pair,
    random_diagonal_pattern,
    rng_for,
)

EPS = DEFAULT_TOL.eps_eq


def _blocks(indices, rng):
    """Split indices into consecutive blocks of 1 or 2: elements of rank one and two."""
    out, start = [], 0
    while start < len(indices):
        size = min(int(rng.integers(1, 3)), len(indices) - start)
        out.append(indices[start:start + size])
        start += size
    return out


def _projector(u, cols):
    block = u[:, list(cols)]
    return block @ block.conj().T


def _sector_case(d, rng):
    """Pair diagonal in a Haar basis, elements inside its joint sectors: screens in every state."""
    u = haar_unitary(d, rng)
    da, db = random_diagonal_pattern(d, rng), random_diagonal_pattern(d, rng)
    pair = EventPair(*(ProjectionEvent(_projector(u, np.flatnonzero(p))) for p in (da, db)))
    groups = [
        block
        for i in (0, 1)
        for j in (0, 1)
        for block in _blocks(rng.permutation(np.flatnonzero((da == i) & (db == j))), rng)
    ]
    return Partition(tuple(_projector(u, g) for g in groups)), pair


def _generic_case(d, rng):
    """Blocks of an unrelated Haar basis and a random commuting pair: screening mostly fails."""
    u = haar_unitary(d, rng)
    groups = _blocks(rng.permutation(d), rng)
    return Partition(tuple(_projector(u, g) for g in groups)), random_commuting_pair(d, rng)


def _states(partition, rng, n=12):
    """Full-rank, pure, and states supported off some elements (those get probability 0)."""
    d = partition.dim
    out = []
    for i in range(n):
        if i % 3 == 0:
            out.append(ginibre_state(d, rng).rho)
        elif i % 3 == 1:
            psi = haar_pure_state(d, rng).psi
            out.append(np.outer(psi, psi.conj()))
        else:
            off = [c.op for c in partition if rng.random() < 0.5][: len(partition) - 1]
            keep = np.eye(d) - sum(off, np.zeros((d, d)))
            sigma = keep @ ginibre_state(d, rng).rho @ keep
            sigma = (sigma + sigma.conj().T) / 2
            out.append(sigma / np.trace(sigma).real)
    return np.array(out)


def _cases():
    for d in (2, 3, 5, 8):
        for trial in range(6):
            rng = rng_for(83, d, trial)
            build = _sector_case if trial % 2 else _generic_case
            partition, pair = build(d, rng)
            yield d, partition, pair, _states(partition, rng)


def test_screen_matches_the_definitions():
    decided = {True: 0, False: 0}
    zero_elements = 0
    ranks = set()
    for d, partition, pair, rhos in _cases():
        elements = [c.op for c in partition]
        ranks.update(partition.rank_profile())
        holds, probs, joint, forms, zero = _screen(rhos, partition, pair, DEFAULT_TOL)
        for i, rho in enumerate(rhos):
            ref = oracle.screening_defects(rho, elements, pair.a.op, pair.b.op, DEFAULT_TOL.eps_prob)
            np.testing.assert_allclose(probs[i], [p for p, _ in ref], atol=1e-12)
            assert zero[i].tolist() == [f is None for _, f in ref], (d, i)
            zero_elements += int(zero[i].sum())
            for k, (_, f) in enumerate(ref):
                if f is not None:
                    np.testing.assert_allclose(forms[i, k], f, atol=1e-9)
            # only where the defect is far from the threshold is the verdict determined
            margin = oracle.screening_margin(rho, elements, pair.a.op, pair.b.op, DEFAULT_TOL.eps_prob)
            if margin > 10 * EPS or margin < EPS / 10:
                assert bool(holds[i]) == (margin < EPS), (d, i, margin)
                decided[bool(holds[i])] += 1
    assert decided[True] > 50 and decided[False] > 50
    assert zero_elements > 20 and {1, 2} <= ranks


def test_is_ccs_is_the_single_state_row_of_the_stack():
    for _, partition, pair, rhos in _cases():
        holds, probs, joint, forms, zero = _screen(rhos, partition, pair, DEFAULT_TOL)
        for i, rho in enumerate(rhos):
            report = is_ccs(DensityState(rho), partition, pair)
            assert report.holds == holds[i]
            assert report.element_probabilities == tuple(probs[i].tolist())
            assert report.zero_probability_elements == tuple(np.flatnonzero(zero[i]).tolist())
            for k, z in enumerate(zero[i]):
                want_joint = None if z else tuple(joint[i, k].tolist())
                want_forms = None if z else tuple(forms[i, k].tolist())
                assert report.conditional_joint[k] == want_joint
                assert report.conditional_deltas[k] == want_forms


@pytest.mark.parametrize("n", [1, 2, 7])
def test_screen_rows_do_not_depend_on_the_stack(n):
    _, partition, pair, rhos = next(_cases())
    full = _screen(rhos, partition, pair, DEFAULT_TOL)
    for start in range(0, len(rhos) - n + 1, n):
        part = _screen(rhos[start:start + n], partition, pair, DEFAULT_TOL)
        for got, want in zip(part, full):
            assert np.array_equal(got, want[start:start + n])
