"""Metamorphic relations: input changes that keep the physics keep the verdict.

Each golden point (partition, canonical pair, reference state) is transformed
and classified again with the same sampler; the listed report fields must not
change.

- R1, global unitary: state, partition and pair conjugated by one Haar U.
  Product status and triviality are not invariant (the bipartite split and
  the sampled probes are not conjugated).
- R2, local unitary U1 (x) U2: the R1 fields plus product status and triviality.
- R3, swap A and B: every verdict field.
- R4, permute the partition's elements: every verdict field; the rank profile
  and the zero-probability indices permute with the elements.

Embedding into a larger space (rho + 0, C_k + 0, one extra element 0 + I_k) is
not checked here: commutation_class scales its threshold with the dimension
while is_ccs and the LTP do not, so an empty block can turn a near-threshold
NONCOMMUTING verdict into COMMUTING.
"""

import numpy as np
import pytest

from conftest import GOLDEN_CFG
from ccslab.classify import classify
from ccslab.core import DensityState, EventPair, Partition, ProjectionEvent
from ccslab.sampling import haar_unitary, rng_for
from ccslab.twoqubit import canonical_events

_GLOBAL_FIELDS = (
    "is_ccs",
    "rank_profile",
    "atomic",
    "commutation",
    "ltp",
    "deterministic",
    "correlation_class",
    "zero_probability_elements",
)
_LOCAL_FIELDS = _GLOBAL_FIELDS + ("product", "triviality")


def _conj(u, m):
    return u @ m @ u.conj().T


def _conjugated(u, partition, pair, state):
    return (
        Partition(tuple(_conj(u, c.op) for c in partition)),
        EventPair(ProjectionEvent(_conj(u, pair.a.op)), ProjectionEvent(_conj(u, pair.b.op))),
        DensityState(_conj(u, state.rho)),
    )


def _global_unitary(i, partition, pair, state):
    return _conjugated(haar_unitary(4, rng_for(72, i)), partition, pair, state), None


def _local_unitary(i, partition, pair, state):
    rng = rng_for(73, i)
    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return _conjugated(u, partition, pair, state), None


def _swap(i, partition, pair, state):
    return (partition, EventPair(pair.b, pair.a), state), None


def _permute(i, partition, pair, state):
    perm = [int(j) for j in rng_for(74, i).permutation(len(partition))]
    return (Partition(tuple(partition.elements[j] for j in perm)), pair, state), perm


def _expected(report, perm, field):
    """The base report's field, carried through an element permutation."""
    value = getattr(report, field)
    if perm is None:
        return value
    if field == "rank_profile":
        return tuple(value[j] for j in perm)
    if field == "zero_probability_elements":
        return tuple(sorted(perm.index(k) for k in value))
    return value


_RELATIONS = [
    pytest.param(_global_unitary, _GLOBAL_FIELDS, id="R1_global_unitary"),
    pytest.param(_local_unitary, _LOCAL_FIELDS, id="R2_local_unitary"),
    pytest.param(_swap, _LOCAL_FIELDS, id="R3_swap_a_b"),
    pytest.param(_permute, _LOCAL_FIELDS, id="R4_permute_elements"),
]


@pytest.mark.parametrize("relation, fields", _RELATIONS)
def test_relation_keeps_the_verdict(relation, fields, golden_reports):
    assert len(golden_reports) == 66
    disagreements = []
    for i, (family, params, partition, state, base) in enumerate(golden_reports):
        (t_partition, t_pair, t_state), perm = relation(i, partition, canonical_events(), state)
        report = classify(t_partition, t_pair, t_state, GOLDEN_CFG, bipartite=(2, 2))
        for field in fields:
            expected = _expected(base, perm, field)
            if getattr(report, field) != expected:
                disagreements.append(
                    (family.value, params, field, expected, getattr(report, field))
                )
    assert not disagreements, disagreements
