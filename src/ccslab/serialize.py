"""Versioned JSON documents for states, partitions, event pairs and reports.

Complex numbers are two-element [re, im] arrays, matrices are row-major
nested arrays; finite doubles round-trip bit-exactly through
``parse_document(emit_document(x))``.
"""

from __future__ import annotations

import math

import numpy as np

from .classify import (
    CCSReport,
    CertificateKind,
    Determinism,
    ProductStatus,
    TrivialityCertificate,
)
from .core import (
    CommutationClass,
    CorrelationClass,
    DensityState,
    EventPair,
    Partition,
    ProjectionEvent,
    PureState,
    ValidationError,
)
from .families import TrivialityLevel

__all__ = [
    "SCHEMA_VERSION",
    "emit_document",
    "parse_document",
    "document_kind",
]

SCHEMA_VERSION = "1"

_KINDS = ("state", "pure_state", "partition", "event_pair", "report")


def _num_out(x) -> float:
    v = float(x)
    if not math.isfinite(v):
        raise ValidationError("documents only carry finite numbers")
    return v


def _complex_out(z) -> list:
    z = complex(z)
    return [_num_out(z.real), _num_out(z.imag)]


def _complex_in(v) -> complex:
    if not (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        raise ValidationError(f"complex entries are [re, im] pairs of numbers, got {v!r}")
    return complex(float(v[0]), float(v[1]))


def _matrix_out(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[_complex_out(z) for z in row] for row in m]


def _matrix_in(rows) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ValidationError("matrix payload must be a non-empty array of rows")
    if len({len(r) for r in rows}) > 1:
        raise ValidationError("matrix rows must all have the same length")
    data = [[_complex_in(v) for v in row] for row in rows]
    return np.array(data, dtype=complex)


def _vector_out(v: np.ndarray) -> list:
    return [_complex_out(z) for z in np.asarray(v, dtype=complex)]


def _vector_in(items) -> np.ndarray:
    if not isinstance(items, list) or not items:
        raise ValidationError("vector payload must be a non-empty array")
    return np.array([_complex_in(v) for v in items], dtype=complex)


def _counterexample_out(ce: dict) -> dict:
    out = {}
    for key, value in ce.items():
        if isinstance(value, np.ndarray):
            out[key] = _matrix_out(value)
        elif isinstance(value, list) and value and isinstance(value[0], np.ndarray):
            out[key] = [_matrix_out(m) for m in value]
        else:
            out[key] = value
    return out


def _counterexample_in(doc: dict) -> dict:
    out = {}
    for key, value in doc.items():
        if key in ("state", "pair_a", "pair_b"):
            out[key] = _matrix_in(value)
        elif key == "partition":
            out[key] = [_matrix_in(m) for m in value]
        else:
            out[key] = value
    return out


def emit_document(obj, meta: dict | None = None) -> dict:
    """Wrap a ccslab object into a versioned document."""
    if isinstance(obj, DensityState):
        kind, payload = "state", {"dim": obj.dim, "rho": _matrix_out(obj.rho)}
    elif isinstance(obj, PureState):
        kind, payload = "pure_state", {"dim": obj.dim, "psi": _vector_out(obj.psi)}
    elif isinstance(obj, Partition):
        kind, payload = "partition", {
            "dim": obj.dim,
            "elements": [_matrix_out(c.op) for c in obj],
        }
    elif isinstance(obj, EventPair):
        kind, payload = "event_pair", {
            "dim": obj.dim,
            "a": _matrix_out(obj.a.op),
            "b": _matrix_out(obj.b.op),
        }
    elif isinstance(obj, CCSReport):
        cert = None
        if obj.certificate is not None:
            cert = {
                "kind": obj.certificate.kind.value,
                "detail": obj.certificate.detail,
                "seed": obj.certificate.seed,
                "n": obj.certificate.n,
                "counterexample": (
                    None
                    if obj.certificate.counterexample is None
                    else _counterexample_out(obj.certificate.counterexample)
                ),
            }
        kind, payload = "report", {
            "is_ccs": obj.is_ccs,
            "rank_profile": list(obj.rank_profile),
            "atomic": obj.atomic,
            "commutation": obj.commutation.value,
            "product": obj.product.value,
            "triviality": obj.triviality.value,
            "ltp": obj.ltp,
            "ltp_residuals": [_num_out(r) for r in obj.ltp_residuals],
            "deterministic": obj.deterministic.value,
            "correlation_class": obj.correlation_class.value,
            "zero_probability_elements": list(obj.zero_probability_elements),
            "certificate": cert,
            "counterexamples": [_counterexample_out(c) for c in obj.counterexamples],
            "notes": list(obj.notes),
        }
    else:
        raise ValidationError(f"cannot serialize {type(obj).__name__}")
    if meta:
        payload = dict(payload, meta=meta)
    return {"version": SCHEMA_VERSION, "kind": kind, "payload": payload}


def document_kind(doc: dict) -> str:
    if not isinstance(doc, dict):
        raise ValidationError("document must be a JSON object")
    if doc.get("version") != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema version {doc.get('version')!r}")
    kind = doc.get("kind")
    if kind not in _KINDS:
        raise ValidationError(f"unknown document kind {kind!r}; expected one of {_KINDS}")
    if not isinstance(doc.get("payload"), dict):
        raise ValidationError("document payload must be an object")
    return kind


def _payload_field(payload: dict, key: str):
    if key not in payload:
        raise ValidationError(f"payload is missing field {key!r}")
    return payload[key]


def _enum_field(payload: dict, key: str, enum_cls):
    value = _payload_field(payload, key)
    try:
        return enum_cls(value)
    except ValueError:
        known = [e.value for e in enum_cls]
        raise ValidationError(f"field {key!r} is {value!r}; expected one of {known}") from None


def parse_document(doc: dict):
    """Inverse of emit_document (up to the optional meta block)."""
    kind = document_kind(doc)
    payload = doc["payload"]
    if kind == "state":
        return DensityState(_matrix_in(_payload_field(payload, "rho")))
    if kind == "pure_state":
        return PureState(_vector_in(_payload_field(payload, "psi")))
    if kind == "partition":
        elements = _payload_field(payload, "elements")
        if not isinstance(elements, list) or not elements:
            raise ValidationError("partition payload needs a non-empty elements array")
        return Partition(tuple(ProjectionEvent(_matrix_in(e)) for e in elements))
    if kind == "event_pair":
        return EventPair(
            ProjectionEvent(_matrix_in(_payload_field(payload, "a"))),
            ProjectionEvent(_matrix_in(_payload_field(payload, "b"))),
        )
    cert_doc = payload.get("certificate")
    cert = None
    if cert_doc is not None:
        if not isinstance(cert_doc, dict):
            raise ValidationError("certificate must be an object or null")
        cert = TrivialityCertificate(
            kind=_enum_field(cert_doc, "kind", CertificateKind),
            detail=cert_doc.get("detail", ""),
            seed=cert_doc.get("seed"),
            n=cert_doc.get("n"),
            counterexample=(
                None
                if cert_doc.get("counterexample") is None
                else _counterexample_in(cert_doc["counterexample"])
            ),
        )
    return CCSReport(
        is_ccs=bool(_payload_field(payload, "is_ccs")),
        rank_profile=tuple(_payload_field(payload, "rank_profile")),
        atomic=bool(_payload_field(payload, "atomic")),
        commutation=_enum_field(payload, "commutation", CommutationClass),
        product=_enum_field(payload, "product", ProductStatus),
        triviality=_enum_field(payload, "triviality", TrivialityLevel),
        ltp=bool(_payload_field(payload, "ltp")),
        ltp_residuals=tuple(float(r) for r in _payload_field(payload, "ltp_residuals")),
        deterministic=_enum_field(payload, "deterministic", Determinism),
        correlation_class=_enum_field(payload, "correlation_class", CorrelationClass),
        zero_probability_elements=tuple(payload.get("zero_probability_elements", ())),
        certificate=cert,
        counterexamples=tuple(
            _counterexample_in(c) for c in payload.get("counterexamples", ())
        ),
        notes=tuple(payload.get("notes", ())),
    )
