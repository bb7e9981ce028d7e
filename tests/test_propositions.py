"""Proposition harness: construction soundness and fault detection."""

import hashlib
import math

import numpy as np
import pytest

from ccslab import core
from ccslab import propositions
from ccslab.core import NotACCSError, density_matrix
from ccslab.families import Family, FamilyParams, associated_state, generate
from ccslab.propositions import (
    PROPOSITION_NAMES,
    PropositionInstance,
    check_proposition,
    verify_propositions,
)
from ccslab.sampling import SamplerConfig
from ccslab.twoqubit import canonical_events

SMALL = SamplerConfig(seed=42, n_states=40)


def test_all_propositions_hold_at_small_scale():
    reports = verify_propositions(SMALL)
    assert set(reports) == set(PROPOSITION_NAMES)
    for report in reports.values():
        assert report.passed, report.name
        assert report.instances == SMALL.n_states
        assert report.strategy


def test_scaled_down_run_same_verdicts():
    tiny = verify_propositions(SamplerConfig(seed=42, n_states=5))
    assert all(r.passed for r in tiny.values())


def test_unknown_proposition_rejected():
    with pytest.raises(KeyError):
        check_proposition("no_such_claim")


def _rank_two_instance():
    params = FamilyParams(c=1.0 / math.sqrt(2.0), s=1.0 / math.sqrt(2.0), r1=0.2, r2=0.1, r3=0.3)
    inst = generate(Family.CCS22ntratC, params)
    return PropositionInstance(
        associated_state(Family.CCS22ntratC, params),
        inst.partition,
        canonical_events(),
        "injected nonatomic instance",
    )


def test_injected_atomicity_fault_yields_counterexample():
    # feed the nonatomic rank-two family into the atomic weak-commutation
    # claim with hypothesis checking disabled: the conclusion must fail and
    # the counterexample must be emitted verbatim
    report = check_proposition(
        "perfect_ltp_atomic_ccs_weakly_commuting",
        instances=[_rank_two_instance()],
        verify_hypotheses=False,
    )
    assert report.violations == 1
    assert len(report.counterexamples) == 1
    ce = report.counterexamples[0]
    assert ce["label"] == "injected nonatomic instance"
    assert ce["state"].shape == (4, 4)
    assert len(ce["partition"]) == 2


def test_hypothesis_verification_flags_bad_external_instances():
    report = check_proposition(
        "perfect_ltp_atomic_ccs_weakly_commuting",
        instances=[_rank_two_instance()],
        verify_hypotheses=True,
    )
    assert report.hypothesis_failures == 1
    assert report.violations == 0


# sha256 (first 16 hex digits) over the first 60 instances of each claim:
# state, partition elements, pair, extra states (shapes and entries rounded
# to 6 decimals, so that LAPACK builds differing in the last bits agree),
# label and the remaining aux entries.  Any change in the draw order, the
# builder mix or a stream tag changes them.
_STREAM_DIGESTS = {
    1: {
        "weakly_commuting_ccs_obeys_ltp": "cfb79d09b85d80cf",
        "perfect_weakly_commuting_ccs_deterministic": "cbc92f940560e267",
        "perfect_ltp_ccs_deterministic": "1f9c26a66e8d6c0b",
        "perfect_ltp_atomic_ccs_weakly_commuting": "a7cb292b56f33420",
        "weakly_commuting_atomic_partition_is_ccs": "edda4d9071e63e9f",
        "classical_atomic_partition_strongly_trivial": "a03d7b8a927eff60",
        "nonatomic_noncommuting_ltp_contrast": "a9f33eb7ab5cad24",
    },
    42: {
        "weakly_commuting_ccs_obeys_ltp": "7b90514ec88feab0",
        "perfect_weakly_commuting_ccs_deterministic": "42b7d294b8e0ed7d",
        "perfect_ltp_ccs_deterministic": "76bd8e9edc9ab8ea",
        "perfect_ltp_atomic_ccs_weakly_commuting": "1eb948d0cf2d7906",
        "weakly_commuting_atomic_partition_is_ccs": "11309fee338b448f",
        "classical_atomic_partition_strongly_trivial": "cbe5e9661d4f17af",
        "nonatomic_noncommuting_ltp_contrast": "5c1a9322c63c66ff",
    },
}


def _stream_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        mats = [density_matrix(inst.state), *(c.op for c in inst.partition)]
        mats += [inst.pair.a.op, inst.pair.b.op]
        mats += [s.rho for s in inst.aux.get("extra_states", ())]
        for m in mats:
            h.update(repr(m.shape).encode())
            h.update((np.round(m, 6) + 0.0).tobytes())  # + 0.0 turns -0.0 into 0.0
        rest = sorted((k, v) for k, v in inst.aux.items() if k != "extra_states")
        h.update((inst.label + repr(rest)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(_STREAM_DIGESTS))
def test_instance_streams_are_pinned(seed):
    cfg = SamplerConfig(seed=seed, n_states=60)
    got = {
        name: _stream_digest(propositions._instances(propositions._CLAIMS[name], cfg))
        for name in PROPOSITION_NAMES
    }
    assert got == _STREAM_DIGESTS[seed]


def test_each_instance_is_screened_once(monkeypatch):
    calls = []
    real = core.is_ccs

    def counting(state, partition, pair, tol=core.DEFAULT_TOL):
        calls.append((state, partition, pair))
        return real(state, partition, pair, tol)

    monkeypatch.setattr(core, "is_ccs", counting)
    monkeypatch.setattr(propositions, "is_ccs", counting)
    n = 10
    verify_propositions(SamplerConfig(seed=1, n_states=n))
    # one call per instance on its own triple, plus claim 5's two extra states
    assert len(calls) == 7 * n + 2 * n
    # the recorded arguments stay alive, so their ids are distinct objects
    assert len({tuple(map(id, c)) for c in calls}) == len(calls)


def test_injected_nonscreening_instance_raises_for_determinism():
    inst = PropositionInstance(
        associated_state(Family.CLTP),
        generate(Family.CLTP).partition,
        canonical_events(),
        "injected nonscreening instance",
    )
    with pytest.raises(NotACCSError):
        check_proposition(
            "perfect_ltp_ccs_deterministic", instances=[inst], verify_hypotheses=False
        )
