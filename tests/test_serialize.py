"""JSON document schema: round trips and validation."""

import json
import math

import numpy as np
import pytest

from ccslab.classify import classify
from ccslab.core import DensityState, PureState, ValidationError
from ccslab.families import Family, FamilyParams, generate
from ccslab.goldentable import reference_state
from ccslab.sampling import (
    SamplerConfig,
    ginibre_state,
    haar_pure_state,
    random_atomic_partition,
    random_commuting_pair,
    rng_for,
)
from ccslab.serialize import SCHEMA_VERSION, document_kind, emit_document, parse_document
from ccslab.twoqubit import canonical_events


def _round_trip_bits(obj):
    doc = emit_document(obj)
    # through an actual JSON text layer, as the CLI does
    recovered = parse_document(json.loads(json.dumps(doc)))
    again = emit_document(recovered)
    assert json.dumps(doc) == json.dumps(again)
    return recovered


def test_state_round_trip_is_bit_exact():
    for i in range(60):
        state = ginibre_state(int(rng_for(61, i).integers(2, 6)), rng_for(61, i))
        recovered = _round_trip_bits(state)
        assert np.array_equal(recovered.rho, state.rho)


def test_pure_state_round_trip():
    for i in range(60):
        psi = haar_pure_state(4, rng_for(62, i))
        recovered = _round_trip_bits(psi)
        assert np.array_equal(recovered.psi, psi.psi)


def test_partition_round_trip():
    for i in range(40):
        part = random_atomic_partition(4, rng_for(63, i))
        recovered = _round_trip_bits(part)
        for a, b in zip(recovered, part):
            assert np.array_equal(a.op, b.op)


def test_event_pair_round_trip():
    for i in range(40):
        pair = random_commuting_pair(4, rng_for(64, i))
        recovered = _round_trip_bits(pair)
        assert np.array_equal(recovered.a.op, pair.a.op)
        assert np.array_equal(recovered.b.op, pair.b.op)


def test_report_round_trip_with_counterexamples():
    params = FamilyParams(theta=math.pi / 3)
    inst = generate(Family.CCSntrat, params)
    state = reference_state(Family.CCSntrat, params)
    report = classify(
        inst.partition, canonical_events(), state, SamplerConfig(seed=42, n_states=50)
    )
    recovered = _round_trip_bits(report)
    assert recovered.triviality == report.triviality
    assert recovered.zero_probability_elements == report.zero_probability_elements
    assert np.array_equal(
        recovered.certificate.counterexample["state"],
        report.certificate.counterexample["state"],
    )


def test_meta_block_is_carried():
    doc = emit_document(DensityState.maximally_mixed(2), meta={"seed": 7})
    assert doc["payload"]["meta"] == {"seed": 7}
    parse_document(doc)  # meta does not break parsing


def test_version_and_kind_validation():
    doc = emit_document(DensityState.maximally_mixed(2))
    assert doc["version"] == SCHEMA_VERSION
    bad = dict(doc, version="2")
    with pytest.raises(ValidationError):
        document_kind(bad)
    with pytest.raises(ValidationError):
        document_kind(dict(doc, kind="mystery"))
    with pytest.raises(ValidationError):
        parse_document({"version": SCHEMA_VERSION, "kind": "state", "payload": {}})


def test_nonfinite_values_rejected():
    state = DensityState.maximally_mixed(2)
    object.__setattr__(state, "rho", np.array([[np.inf, 0], [0, 1]], dtype=complex))
    with pytest.raises(ValidationError):
        emit_document(state)


def test_malformed_complex_entries_rejected():
    doc = emit_document(PureState.normalized([1.0, 1.0]))
    doc["payload"]["psi"][0] = [1.0]
    with pytest.raises(ValidationError):
        parse_document(doc)


def _report_doc():
    inst = generate(Family.CCSntrat, FamilyParams(theta=math.pi / 3))
    report = classify(
        inst.partition,
        canonical_events(),
        reference_state(Family.CCSntrat, FamilyParams(theta=math.pi / 3)),
        SamplerConfig(seed=42, n_states=20),
    )
    return json.loads(json.dumps(emit_document(report)))


@pytest.mark.parametrize(
    "field, value",
    [
        ("commutation", "sideways"),
        ("product", "mostly"),
        ("triviality", "medium"),
        ("deterministic", "maybe"),
        ("correlation_class", ["perfectly_correlated"]),
    ],
)
def test_report_unknown_enum_value_rejected(field, value):
    doc = _report_doc()
    doc["payload"][field] = value
    with pytest.raises(ValidationError, match=field):
        parse_document(doc)


@pytest.mark.parametrize("certificate", [{"detail": "no kind"}, {"kind": "guessed"}, "analytic"])
def test_report_malformed_certificate_rejected(certificate):
    doc = _report_doc()
    doc["payload"]["certificate"] = certificate
    with pytest.raises(ValidationError):
        parse_document(doc)


@pytest.mark.parametrize(
    "rho",
    [
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
        [[["a", 0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[[True, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
        [1, 2],
    ],
    ids=["ragged", "non_numeric", "boolean", "flat"],
)
def test_malformed_matrix_payload_rejected(rho):
    doc = {"version": SCHEMA_VERSION, "kind": "state", "payload": {"dim": 2, "rho": rho}}
    with pytest.raises(ValidationError):
        parse_document(doc)
