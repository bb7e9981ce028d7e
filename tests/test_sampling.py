"""Seeded samplers: determinism, validity, splittability, Haar statistics."""

import os
import subprocess
import sys

import numpy as np
import pytest

from ccslab.core import DensityState, EventPair, PureState
from ccslab.sampling import (
    SamplerConfig,
    SamplingMethod,
    ginibre_state,
    haar_unitary,
    random_atomic_partition,
    random_commuting_pair,
    random_product_pair,
    rng_for,
    sample,
)
from ccslab.twoqubit import concurrence_squared


def test_fixed_seed_reproduces_the_stream():
    cfg = SamplerConfig(seed=99, n_states=20, n_event_pairs=10)
    first = list(sample(cfg))
    second = list(sample(cfg))
    assert len(first) == 30
    for x, y in zip(first, second):
        if isinstance(x, (DensityState,)):
            assert np.array_equal(x.rho, y.rho)
        elif isinstance(x, PureState):
            assert np.array_equal(x.psi, y.psi)
        else:
            assert np.array_equal(x.a.op, y.a.op) and np.array_equal(x.b.op, y.b.op)


def test_stream_items_are_index_pure():
    # drawing item 7 alone matches item 7 of the sequential stream
    cfg = SamplerConfig(seed=5, n_states=10, n_event_pairs=1)
    sequential = list(sample(cfg))[7]
    from ccslab.sampling import random_state, _STREAM_STATE

    direct = random_state(4, rng_for(5, _STREAM_STATE, 7), cfg.method)
    assert np.array_equal(sequential.psi, direct.psi)


def test_ginibre_states_are_valid_and_full_rank():
    for i in range(50):
        state = ginibre_state(4, rng_for(53, i))
        evals = np.linalg.eigvalsh(state.rho)
        assert evals.min() > 1e-8


def test_haar_unitary_is_unitary():
    for i in range(20):
        u = haar_unitary(5, rng_for(54, i))
        assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-10)


def test_commuting_pair_samplers():
    for i in range(30):
        rng = rng_for(55, i)
        pair = random_commuting_pair(4, rng)
        assert isinstance(pair, EventPair)
        prod = random_product_pair((2, 2), rng)
        assert prod.a.rank in (1, 2, 3) and prod.b.rank in (1, 2, 3)


def test_atomic_partition_sampler():
    part = random_atomic_partition(5, rng_for(56))
    assert part.rank_profile() == (1, 1, 1, 1, 1)


def test_config_validation():
    with pytest.raises(Exception):
        SamplerConfig(n_states=0)


def test_mean_concurrence_matches_monte_carlo_oracle():
    # oracle: a large vectorized pre-run with an independent stream
    rng = np.random.default_rng(123456)
    big = rng.standard_normal((1_000_000, 4)) + 1j * rng.standard_normal((1_000_000, 4))
    big /= np.linalg.norm(big, axis=1, keepdims=True)
    dets = big[:, 0] * big[:, 3] - big[:, 1] * big[:, 2]
    c2 = 4.0 * np.abs(dets) ** 2
    oracle_mean = float(c2.mean())
    oracle_sigma = float(c2.std())

    cfg = SamplerConfig(seed=42, n_states=1000, method=SamplingMethod.HAAR_PURE)
    draws = [x for x in sample(cfg) if isinstance(x, PureState)]
    values = [concurrence_squared(psi) for psi in draws]
    mean = float(np.mean(values))
    assert abs(mean - oracle_mean) <= 3.0 * oracle_sigma / np.sqrt(len(values))


def test_diagonal_pattern_rejects_dimension_one():
    # no nontrivial 0/1 pattern exists in dimension 1; run in a subprocess
    # with a timeout, since a rejection loop would never return
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "from ccslab.core import ValidationError\n"
        "from ccslab.sampling import random_diagonal_pattern, rng_for\n"
        "try:\n"
        "    random_diagonal_pattern(1, rng_for(0))\n"
        "except ValidationError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
