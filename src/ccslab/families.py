"""Catalog of two-qubit partition families and their expected classifications.

Each family is a named construction of a partition of unity (most are
atomic), some with an associated state that makes the family's advertised
properties hold.  ``expected_table_row`` returns the reference
classification of a family at given parameter values, with
parameter-conditional entries evaluated; the golden test suite checks the
classifier against these rows.

Every family is one record of the private table ``_CATALOG``: its required
parameters, whether it is atomic, its four orthonormal kets (atomic
families project onto each ket, the others pair kets 0,1 and 2,3 into two
rank-two elements), its associated state (None for a state-independent
family) and its reference row.  A family whose row depends on its
parameters also has a ``degenerate_row``: the row at theta in pi*Z (theta
families) or at c*s = 0 (c, s families), where the construction degenerates
to a commuting or product one; ``row`` holds everywhere else.

Identifiers are stable strings (they are the CLI surface); parameters are
always radians / normalized amplitudes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    CCSLabError,
    CommutationClass,
    DensityState,
    Partition,
    ProjectionEvent,
    ValidationError,
)
from .twoqubit import (
    KET_MINUS,
    KET_PLUS,
    TWIST_PHASES,
    basis_ket,
    diagonal_unitary,
    local_rotation,
    perfect_correlation_state,
    product_ket,
)

__all__ = [
    "Family",
    "FamilyParams",
    "FamilyInstance",
    "TableRow",
    "TrivialityLevel",
    "MissingParameterError",
    "NormalizationError",
    "NoAssociatedStateError",
    "bell_phi_vector",
    "generate",
    "associated_state",
    "expected_table_row",
    "required_parameters",
    "is_pi_multiple",
]


class MissingParameterError(CCSLabError):
    """A family parameter the construction needs was not supplied."""


class NormalizationError(ValidationError):
    """Supplied amplitude parameters violate their normalization constraint."""


class NoAssociatedStateError(CCSLabError):
    """The family is state-independent: no associated state is defined."""


class Family(enum.Enum):
    """Stable identifiers for the partition families."""

    TrivAB2 = "TrivAB2"
    TrivAB4 = "TrivAB4"
    CCSclass = "CCSclass"
    CCSGabor = "CCSGabor"
    CCSclassU = "CCSclassU"
    CCStwist = "CCStwist"
    CCSBell = "CCSBell"
    CCShyper = "CCShyper"
    CCSntrat = "CCSntrat"
    CCSntratU = "CCSntratU"
    CCS22ntrat = "CCS22ntrat"
    CCS22ntratU = "CCS22ntratU"
    CLTP = "CLTP"
    CCSclassUspec = "CCSclassUspec"
    CCStwistLTPspec = "CCStwistLTPspec"
    CCSntratC = "CCSntratC"
    CCS22ntratC = "CCS22ntratC"

    @classmethod
    def from_tag(cls, tag: str) -> "Family":
        try:
            return cls(tag)
        except ValueError:
            raise KeyError(f"unknown family {tag!r}; known: {[f.value for f in cls]}") from None


# state-parameter defaults where the CLI has no dedicated flags
_DEFAULT_CLTP_AB = (math.sqrt(3.0) / 2.0, 0.5)
_DEFAULT_PERFECT_R = (0.3, 0.4, 0.5)


@dataclass(frozen=True)
class FamilyParams:
    """Parameter bundle; families read only the fields they declare."""

    theta: float | None = None
    xi: float | None = None
    zeta: float | None = None
    c: complex | None = None
    s: complex | None = None
    a: complex | None = None
    b: complex | None = None
    r1: float | None = None
    r2: float | None = None
    r3: float | None = None


@dataclass(frozen=True)
class FamilyInstance:
    family: Family
    partition: Partition
    atomic: bool
    state: DensityState | None = None


class TrivialityLevel(enum.Enum):
    STRONG = "strong"
    WEAK = "weak"
    NONTRIVIAL = "nontrivial"
    NOT_A_CCS = "not_a_ccs"


@dataclass(frozen=True)
class TableRow:
    """Reference classification of a family at fixed parameters.

    ``None`` marks entries excluded from golden comparison: either
    not-applicable cells (e.g. productness of nonatomic partitions) or
    unresolved ones (law of total probability where no ground truth is
    stated).  State-dependent entries refer to the family's reference
    state (see goldentable.reference_state).
    """

    family: Family
    is_ccs: bool
    atomic: bool
    commuting: CommutationClass
    all_product: bool | None
    triviality: TrivialityLevel | None
    ltp: bool | None
    deterministic: bool | None


def is_pi_multiple(theta: float, tol: float = 1e-9) -> bool:
    return abs(math.remainder(theta, math.pi)) <= tol


def _cs_degenerate(c: complex, s: complex, tol: float = 1e-9) -> bool:
    return abs(c) <= tol or abs(s) <= tol


def _check_unit_pair(x: complex, y: complex, what: str) -> None:
    if abs(abs(x) ** 2 + abs(y) ** 2 - 1.0) > 1e-9:
        raise NormalizationError(f"{what} must satisfy |{what[0]}|^2 + |{what[2]}|^2 = 1")


# ---------------------------------------------------------------------------
# Vector constructions
# ---------------------------------------------------------------------------

def bell_phi_vector() -> np.ndarray:
    """(|00> + |11>)/sqrt(2)."""
    return (basis_ket(0, 0) + basis_ket(1, 1)) / np.sqrt(2.0)


def rotated_product_vectors(theta: float) -> list:
    """Product basis rotated by the same single-qubit rotation on both factors."""
    u = local_rotation(theta)
    kets = (u[:, 0], u[:, 1])
    return [product_ket(kets[i], kets[j]) for i in (0, 1) for j in (0, 1)]


def twisted_product_vectors(theta: float) -> list:
    """Rotated product basis conjugated by the diagonal phase twist diag(1,1,1,-1)."""
    v = diagonal_unitary(TWIST_PHASES)
    return [v @ g for g in rotated_product_vectors(theta)]


def _basis_vectors() -> list:
    return [basis_ket(i, j) for i in (0, 1) for j in (0, 1)]


_PM = (KET_PLUS, KET_MINUS)


def _gabor_vectors() -> list:
    return [product_ket(x, y) for x in _PM for y in _PM]


def _half_angle(theta: float) -> tuple:
    return math.cos(theta / 2.0), math.sin(theta / 2.0)


def _bell_family_vectors(theta: float) -> list:
    c, s = _half_angle(theta)
    k0p, k0m, k1p, k1m = (product_ket(x, y) for x in ((1, 0), (0, 1)) for y in _PM)
    return [c * k0p + s * k1m, c * k0m + s * k1p, s * k0m - c * k1p, s * k0p - c * k1m]


def _hyper_vectors(xi: float, zeta: float) -> list:
    try:
        n = 1.0 / math.sqrt(2.0 * (math.cosh(xi) + math.cosh(zeta)))
    except OverflowError:
        n = 0.0
    if n == 0.0:
        raise ValidationError("CCShyper: cosh(xi) + cosh(zeta) overflows (|xi| or |zeta| > ~709)")
    ep, em = math.exp(xi / 2.0), math.exp(-xi / 2.0)
    fp, fm = math.exp(zeta / 2.0), math.exp(-zeta / 2.0)
    rows = ([ep, fp, fm, -em], [em, fm, -fp, ep], [fp, -ep, em, fm], [-fm, em, ep, fp])
    return [n * np.array(r, dtype=complex) for r in rows]


def _ntrat_vectors(c: complex, s: complex) -> list:
    """Basis kets on the diagonal, a rotated pair on the antidiagonal block."""
    _check_unit_pair(c, s, "c,s")
    g1 = c * basis_ket(0, 1) + s * basis_ket(1, 0)
    g2 = -np.conj(s) * basis_ket(0, 1) + np.conj(c) * basis_ket(1, 0)
    return [basis_ket(0, 0), g1, g2, basis_ket(1, 1)]


def _ntrat_u_vectors(theta: float) -> list:
    c, s = _half_angle(theta)
    pp, pm, mp, mm = _gabor_vectors()
    return [pp, c * pm + s * mp, -s * pm + c * mp, mm]


def _cltp_vectors() -> list:
    rt2 = math.sqrt(2.0)
    rows = ([1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j])
    return [np.array(r, dtype=complex) / rt2 for r in rows]


def _class_u_spec_vectors() -> list:
    p = math.sqrt(2.0) + 1.0
    m = math.sqrt(2.0) - 1.0
    n = 1.0 / (2.0 * math.sqrt(2.0))
    rows = ([p, 1, 1, m], [-1, p, -m, 1], [-1, -m, p, 1], [m, -1, -1, p])
    return [n * np.array(r, dtype=complex) for r in rows]


def _twist_spec_vectors() -> list:
    v = diagonal_unitary(TWIST_PHASES)
    return [v @ g for g in _class_u_spec_vectors()]


def _rank_two_pairing(v) -> Partition:
    """Kets 0, 1 and kets 2, 3 paired into two rank-two elements."""
    pairs = ((v[0], v[1]), (v[2], v[3]))
    events = (ProjectionEvent(np.outer(x, x.conj()) + np.outer(y, y.conj())) for x, y in pairs)
    return Partition(tuple(events))


# ---------------------------------------------------------------------------
# Associated states
# ---------------------------------------------------------------------------

def _symmetric_state_vector(a: complex, b: complex, last_sign: float) -> np.ndarray:
    _check_unit_pair(a, b, "a,b")
    return np.array([a, b, b, last_sign * a], dtype=complex) / math.sqrt(2.0)


def spec_ltp_state_vector(twisted: bool = False) -> np.ndarray:
    """The closed-form state amplitudes sqrt(sqrt(5) +- 1)/(2 * 5^(1/4))."""
    rt5 = math.sqrt(5.0)
    p = math.sqrt(rt5 + 1.0)
    m = math.sqrt(rt5 - 1.0)
    n = 1.0 / (2.0 * 5.0 ** 0.25)
    last = p if twisted else -p
    return n * np.array([p, m, m, last], dtype=complex)


def _bell_state(params: FamilyParams) -> DensityState:
    return DensityState.from_vector(bell_phi_vector())


def _cltp_state(params: FamilyParams) -> DensityState:
    a, b = params.a, params.b
    if a is None or b is None:
        a, b = _DEFAULT_CLTP_AB
    return DensityState.from_vector(_symmetric_state_vector(a, b, +1.0))


def _solved_ltp_state(family: Family, last_sign: float) -> Callable:
    """CCSclassU/CCStwist: real a,b with a^2 + b^2 = 1, no default."""

    def state(params: FamilyParams) -> DensityState:
        if params.a is None or params.b is None:
            raise MissingParameterError(
                f"family {family.value} needs state parameters a, b "
                "(the solver provides the pair satisfying the law of total probability)"
            )
        return DensityState.from_vector(_symmetric_state_vector(params.a, params.b, last_sign))

    return state


def _perfect_state(params: FamilyParams) -> DensityState:
    given = (params.r1, params.r2, params.r3)
    return perfect_correlation_state(
        *(d if r is None else r for r, d in zip(given, _DEFAULT_PERFECT_R))
    )


# ---------------------------------------------------------------------------
# The catalog
# ---------------------------------------------------------------------------

_C = CommutationClass.COMMUTING
_W = CommutationClass.WEAKLY_COMMUTING
_N = CommutationClass.NONCOMMUTING
_STRONG = TrivialityLevel.STRONG
_WEAK = TrivialityLevel.WEAK
_NONTRIVIAL = TrivialityLevel.NONTRIVIAL

# rows are (is_ccs, commuting, all_product, triviality, ltp, deterministic)
_CLASSICAL_ROW = (True, _C, True, _STRONG, True, True)
_PAIRED_CLASSICAL_ROW = (True, _C, None, _WEAK, True, True)
_PRODUCT_NCC_ROW = (True, _N, True, _STRONG, True, False)
_TWISTED_ROW = (True, _N, False, _WEAK, True, False)
_ENTANGLED_ROW = (True, _N, False, _WEAK, None, False)
_NTRAT_ROW = (True, _W, False, _NONTRIVIAL, True, True)
_22NTRAT_ROW = (True, _N, None, _NONTRIVIAL, True, True)


class _Spec(NamedTuple):
    params: tuple
    atomic: bool
    vectors: Callable  # FamilyParams -> four orthonormal kets
    state: Callable | None  # FamilyParams -> DensityState; None: state-independent
    row: tuple
    degenerate_row: tuple | None = None  # at theta in pi*Z, or at c*s = 0


_THETA = ("theta",)
_CS = ("c", "s")

_CATALOG = {
    # family: _Spec(params, atomic, vectors, state, row[, degenerate_row])
    Family.TrivAB2: _Spec((), False, lambda p: _basis_vectors(), None, _PAIRED_CLASSICAL_ROW),
    Family.TrivAB4: _Spec((), True, lambda p: _basis_vectors(), None, _CLASSICAL_ROW),
    Family.CCSclass: _Spec((), True, lambda p: _basis_vectors(), None, _CLASSICAL_ROW),
    Family.CCSGabor: _Spec((), True, lambda p: _gabor_vectors(), None, _PRODUCT_NCC_ROW),
    Family.CCSclassU: _Spec(
        _THETA, True, lambda p: rotated_product_vectors(p.theta),
        _solved_ltp_state(Family.CCSclassU, -1.0), _PRODUCT_NCC_ROW, _CLASSICAL_ROW,
    ),
    Family.CCStwist: _Spec(
        _THETA, True, lambda p: twisted_product_vectors(p.theta),
        _solved_ltp_state(Family.CCStwist, +1.0), _TWISTED_ROW, _CLASSICAL_ROW,
    ),
    Family.CCSBell: _Spec(
        _THETA, True, lambda p: _bell_family_vectors(p.theta), None,
        _ENTANGLED_ROW, (True, _N, True, _STRONG, None, False),
    ),
    Family.CCShyper: _Spec(
        ("xi", "zeta"), True, lambda p: _hyper_vectors(p.xi, p.zeta), None, _ENTANGLED_ROW
    ),
    Family.CCSntrat: _Spec(
        _THETA, True, lambda p: _ntrat_vectors(*_half_angle(p.theta)), _bell_state,
        _NTRAT_ROW, _CLASSICAL_ROW,
    ),
    Family.CCSntratU: _Spec(
        _THETA, True, lambda p: _ntrat_u_vectors(p.theta), _bell_state,
        (True, _N, False, _NONTRIVIAL, False, False), (True, _N, True, _STRONG, False, False),
    ),
    Family.CCS22ntrat: _Spec(
        _THETA, False, lambda p: _ntrat_vectors(*_half_angle(p.theta)), _bell_state,
        _22NTRAT_ROW, _PAIRED_CLASSICAL_ROW,
    ),
    # at pi-multiples the elements are one-sided rank-two projections whose
    # conditional states are product, so the partition screens for every
    # state: weakly trivial there, nontrivial otherwise
    Family.CCS22ntratU: _Spec(
        _THETA, False, lambda p: _ntrat_u_vectors(p.theta), _bell_state,
        (True, _N, None, _NONTRIVIAL, False, False), (True, _N, None, _WEAK, False, False),
    ),
    Family.CLTP: _Spec(
        (), True, lambda p: _cltp_vectors(), _cltp_state, (False, _N, False, None, True, None)
    ),
    Family.CCSclassUspec: _Spec(
        (), True, lambda p: _class_u_spec_vectors(),
        lambda p: DensityState.from_vector(spec_ltp_state_vector(twisted=False)), _PRODUCT_NCC_ROW,
    ),
    Family.CCStwistLTPspec: _Spec(
        (), True, lambda p: _twist_spec_vectors(),
        lambda p: DensityState.from_vector(spec_ltp_state_vector(twisted=True)), _TWISTED_ROW,
    ),
    Family.CCSntratC: _Spec(
        _CS, True, lambda p: _ntrat_vectors(p.c, p.s), _perfect_state,
        _NTRAT_ROW, _CLASSICAL_ROW,
    ),
    # commuting iff c or s vanishes, else plainly noncommuting: the rank-two
    # elements have nonzero probability (1 +- r3)/2
    Family.CCS22ntratC: _Spec(
        _CS, False, lambda p: _ntrat_vectors(p.c, p.s), _perfect_state,
        _22NTRAT_ROW, _PAIRED_CLASSICAL_ROW,
    ),
}

#: Parameters each family's partition construction requires.
REQUIRED_PARAMS = {family: spec.params for family, spec in _CATALOG.items()}


def required_parameters(family: Family) -> tuple:
    return REQUIRED_PARAMS[family]


def _spec(family: Family, params: FamilyParams) -> _Spec:
    """The family's record, once its required parameters are known to be set."""
    spec = _CATALOG[family]
    for name in spec.params:
        if getattr(params, name) is None:
            raise MissingParameterError(f"family {family.value} needs parameter {name!r}")
    return spec


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def generate(family: Family, params: FamilyParams = FamilyParams()) -> FamilyInstance:
    """Build the family's partition; the associated state is attached when it
    is defined without further parameters."""
    spec = _spec(family, params)
    vectors = spec.vectors(params)
    partition = Partition.from_vectors(vectors) if spec.atomic else _rank_two_pairing(vectors)
    try:
        state = associated_state(family, params)
    except (NoAssociatedStateError, MissingParameterError):
        state = None
    return FamilyInstance(family, partition, spec.atomic, state)


def associated_state(family: Family, params: FamilyParams = FamilyParams()) -> DensityState:
    """The state tied to a state-specific family.

    Raises NoAssociatedStateError for state-independent families, and
    MissingParameterError when the state family needs amplitudes that were
    not supplied (CCSclassU/CCStwist: real a,b with a^2 + b^2 = 1).
    """
    state = _CATALOG[family].state
    if state is None:
        raise NoAssociatedStateError(f"family {family.value} is state-independent")
    return state(params)


def expected_table_row(family: Family, params: FamilyParams = FamilyParams()) -> TableRow:
    """Reference row with parameter-conditional entries evaluated."""
    spec = _spec(family, params)
    degenerate = spec.degenerate_row is not None and (
        is_pi_multiple(params.theta) if spec.params == _THETA else _cs_degenerate(params.c, params.s)
    )
    is_ccs, *cells = spec.degenerate_row if degenerate else spec.row
    return TableRow(family, is_ccs, spec.atomic, *cells)
