"""Golden comparison: classifier output against the families' reference rows.

Each family is evaluated at a fixed parameter grid with a documented
reference state (state-dependent cells of the reference rows are asserted
for exactly that state):

- two-element complement family: the maximally entangled perfect-correlation
  state (its deterministic cell holds on perfect-correlation states)
- basis / product families with an unconditional law-of-total-probability
  cell: states solving that law for the family's angle (the solver branch)
- families with an associated state: that state
- remaining families: the maximally mixed state (their compared cells are
  state-independent; the unresolved law-of-total-probability cells are
  reported as skipped, with residuals attached)
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .classify import CCSReport, Determinism, ProductStatus, classify
from .core import DEFAULT_TOL, DensityState, Tolerance
from .families import (
    REQUIRED_PARAMS,
    Family,
    FamilyParams,
    TableRow,
    associated_state,
    bell_phi_vector,
    expected_table_row,
    generate,
)
from .sampling import SamplerConfig
from .solver import _ltp_state_at
from .twoqubit import canonical_events

__all__ = [
    "GOLDEN_THETAS",
    "GOLDEN_CS",
    "CellStatus",
    "CellOutcome",
    "reference_state",
    "golden_parameter_sets",
    "run_golden_table",
]

GOLDEN_THETAS = (
    0.0,
    math.pi / 6.0,
    math.pi / 4.0,
    math.pi / 3.0,
    math.pi / 2.0,
    2.0 * math.pi / 3.0,
    math.pi,
)

_RT2 = 1.0 / math.sqrt(2.0)
GOLDEN_CS = ((1.0, 0.0), (_RT2, _RT2), (_RT2, 1j * _RT2))

# hyperbolic parameter pairs for the exponential family (its row is
# parameter-independent; values just exercise the domain)
GOLDEN_XI_ZETA = ((0.0, 0.0), (0.5, 1.0), (2.0, -1.0), (-0.75, 0.25))


class CellStatus(enum.Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    SKIPPED = "SKIPPED"


@dataclass(frozen=True)
class CellOutcome:
    family: Family
    params_label: str
    column: str
    status: CellStatus
    expected: object = None
    actual: object = None
    detail: str = ""

    def __str__(self):
        base = f"{self.status.value:7s} {self.family.value:16s} {self.params_label:24s} {self.column}"
        if self.status is CellStatus.FAIL:
            return f"{base}  expected={self.expected} actual={self.actual}"
        if self.detail:
            return f"{base}  ({self.detail})"
        return base


def reference_state(family: Family, params: FamilyParams) -> DensityState:
    """The state the family's reference row is evaluated with."""
    if family is Family.TrivAB2:
        return DensityState.from_vector(bell_phi_vector())
    if family in (Family.TrivAB4, Family.CCSclass, Family.CCSBell, Family.CCShyper):
        return DensityState.maximally_mixed(4)
    if family is Family.CCSGabor:
        return _ltp_state_at(Family.CCSclassU, math.pi / 2.0)
    if family in (Family.CCSclassU, Family.CCStwist):
        return _ltp_state_at(family, params.theta)
    return associated_state(family, params)


def golden_parameter_sets(family: Family, thetas=GOLDEN_THETAS, cs_values=GOLDEN_CS) -> list:
    """The grid for the parameters the family requires (REQUIRED_PARAMS)."""
    required = REQUIRED_PARAMS[family]
    if required == ("theta",):
        return [FamilyParams(theta=t) for t in thetas]
    if required == ("xi", "zeta"):
        return [FamilyParams(xi=x, zeta=z) for x, z in GOLDEN_XI_ZETA]
    if required == ("c", "s"):
        return [FamilyParams(c=c, s=s) for c, s in cs_values]
    return [FamilyParams()]


def _params_label(family: Family, params: FamilyParams) -> str:
    if params.theta is not None:
        return f"theta={params.theta:.6g}"
    if params.xi is not None:
        return f"xi={params.xi:.3g},zeta={params.zeta:.3g}"
    if params.c is not None:
        return f"c={params.c:.3g},s={params.s:.3g}"
    return "-"


def _compare_cells(family, label, expected: TableRow, report: CCSReport) -> list:
    outcomes = []

    def cell(column, exp, act, skipped_detail=None):
        if exp is None:
            outcomes.append(
                CellOutcome(
                    family,
                    label,
                    column,
                    CellStatus.SKIPPED,
                    detail=skipped_detail or "not applicable",
                )
            )
        elif exp == act:
            outcomes.append(CellOutcome(family, label, column, CellStatus.PASS, exp, act))
        else:
            outcomes.append(CellOutcome(family, label, column, CellStatus.FAIL, exp, act))

    cell("is_ccs", expected.is_ccs, report.is_ccs)
    cell("atomic", expected.atomic, report.atomic)
    cell("commuting", expected.commuting, report.commutation)
    product_actual = {
        ProductStatus.ALL_PRODUCT: True,
        ProductStatus.SOME_NONPRODUCT: False,
        ProductStatus.NOT_APPLICABLE: None,
    }[report.product]
    cell("product", expected.all_product, product_actual)
    triv_actual = report.triviality if expected.triviality is not None else None
    cell("triviality", expected.triviality, triv_actual)
    residuals = ", ".join(f"{r:.3e}" for r in report.ltp_residuals)
    cell("ltp", expected.ltp, report.ltp, skipped_detail=f"unresolved; residuals {residuals}")
    det_actual = {
        Determinism.DETERMINISTIC: True,
        Determinism.INDETERMINISTIC: False,
        Determinism.NOT_A_CCS: None,
    }[report.deterministic]
    cell("deterministic", expected.deterministic, det_actual)
    return outcomes


def run_golden_table(
    cfg: SamplerConfig | None = None,
    tol: Tolerance = DEFAULT_TOL,
    thetas=GOLDEN_THETAS,
    cs_values=GOLDEN_CS,
    families=None,
    expected_override=None,
) -> list:
    """All cell outcomes across the grid.

    ``expected_override(family, params) -> TableRow`` replaces the reference
    rows (used by harness self-tests to confirm that corrupted expectations
    are detected and located).
    """
    cfg = cfg or SamplerConfig()
    expected_fn = expected_override or expected_table_row
    pair = canonical_events()
    outcomes = []
    for family in families or Family:
        for params in golden_parameter_sets(family, thetas, cs_values):
            label = _params_label(family, params)
            instance = generate(family, params)
            state = reference_state(family, params)
            report = classify(instance.partition, pair, state, cfg, tol, bipartite=(2, 2))
            expected = expected_fn(family, params)
            outcomes.extend(_compare_cells(family, label, expected, report))
    return outcomes
