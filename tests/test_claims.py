"""The abstract's four claims, each pinned on named golden cells.

The golden table is the only link between the code and the paper's claims;
these witnesses name the claim a changed reference row or threshold breaks.
Cells are classified with their golden reference state at seed 1.
"""

import math
from dataclasses import dataclass

import pytest

from ccslab.classify import CertificateKind, Determinism, ProductStatus, classify
from ccslab.core import CommutationClass, CorrelationClass
from ccslab.families import Family, FamilyParams, TrivialityLevel, generate
from ccslab.goldentable import GOLDEN_CS, GOLDEN_THETAS, reference_state
from ccslab.sampling import SamplerConfig
from ccslab.twoqubit import canonical_events

CFG = SamplerConfig(seed=1)

# away from pi*Z, and away from pi/2 where the solved state leaves the pair uncorrelated
_LTP_THETAS = (math.pi / 6.0, math.pi / 4.0, math.pi / 3.0, 2.0 * math.pi / 3.0)
_OFF_PI_THETAS = tuple(t for t in GOLDEN_THETAS if t % math.pi != 0.0)


@dataclass(frozen=True)
class _Claim:
    name: str
    statement: str
    cells: tuple  # (family, FamilyParams)
    allowed: dict  # observed field -> set of allowed values


def _thetas(family, thetas):
    return tuple((family, FamilyParams(theta=t)) for t in thetas)


_NONCOMMUTING = {CommutationClass.NONCOMMUTING}

CLAIMS = (
    _Claim(
        "claim1_product_screening",
        "claim 1: product states that screen off all correlations do not compromise "
        "NCC explanations",
        _thetas(Family.CCSclassU, _LTP_THETAS),
        {
            "triviality": {TrivialityLevel.STRONG},
            "certificate": {CertificateKind.ANALYTIC},
            "product": {ProductStatus.ALL_PRODUCT},
            "commutation": _NONCOMMUTING,
            "is_ccs": {True},
            "correlation_class": {CorrelationClass.CORRELATED},
        },
    ),
    _Claim(
        "claim2_ltp_ncc",
        "claim 2: an NCC can satisfy the law of total probability",
        _thetas(Family.CCSclassU, _LTP_THETAS) + _thetas(Family.CCStwist, _LTP_THETAS),
        {
            "correlation_class": {CorrelationClass.CORRELATED},
            "commutation": _NONCOMMUTING,
            "is_ccs": {True},
            "ltp": {True},
        },
    ),
    _Claim(
        "claim3_indeterministic_perfect_ncc",
        "claim 3: a perfect correlation can have an indeterministic NCC",
        _thetas(Family.CCSntratU, GOLDEN_THETAS) + _thetas(Family.CCS22ntratU, GOLDEN_THETAS),
        {
            "correlation_class": {CorrelationClass.MAXIMALLY_CORRELATED},
            "commutation": _NONCOMMUTING,
            "deterministic": {Determinism.INDETERMINISTIC},
            "ltp": {False},
        },
    ),
    _Claim(
        "claim4_nontrivial_ltp_perfect_ncc",
        "claim 4: a perfect correlation can have an NCC that is nontrivial and satisfies "
        "the law of total probability",
        _thetas(Family.CCS22ntrat, _OFF_PI_THETAS)
        + tuple((Family.CCS22ntratC, FamilyParams(c=c, s=s)) for c, s in GOLDEN_CS if c and s),
        {
            "correlation_class": {
                CorrelationClass.PERFECTLY_CORRELATED,
                CorrelationClass.MAXIMALLY_CORRELATED,
            },
            "commutation": _NONCOMMUTING,
            "triviality": {TrivialityLevel.NONTRIVIAL},
            "ltp": {True},
            "atomic": {False},
        },
    ),
)


def _cell_id(claim, family, params):
    if params.theta is not None:
        return f"{claim.name}-{family.value}-theta={params.theta:.4f}"
    return f"{claim.name}-{family.value}-c={params.c:.3g},s={params.s:.3g}"


_WITNESSES = [
    pytest.param(claim, family, params, id=_cell_id(claim, family, params))
    for claim in CLAIMS
    for family, params in claim.cells
]


def _observed(report, field):
    if field == "certificate":
        return report.certificate.kind if report.certificate is not None else None
    return getattr(report, field)


@pytest.mark.parametrize("claim, family, params", _WITNESSES)
def test_abstract_claim_holds_on_witness_cell(claim, family, params):
    partition = generate(family, params).partition
    state = reference_state(family, params)
    report = classify(partition, canonical_events(), state, CFG, bipartite=(2, 2))
    wrong = {
        field: _observed(report, field)
        for field, allowed in claim.allowed.items()
        if _observed(report, field) not in allowed
    }
    assert not wrong, f"{claim.statement} -- fails at {family.value} {params}: {wrong}"
