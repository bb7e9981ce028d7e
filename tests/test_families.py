"""Family generators, associated states, reference rows."""

import dataclasses
import enum
import hashlib
import math

import numpy as np
import pytest

from ccslab.core import CCSLabError, CommutationClass, DensityState, ValidationError
from ccslab.families import (
    Family,
    FamilyInstance,
    FamilyParams,
    MissingParameterError,
    NoAssociatedStateError,
    NormalizationError,
    TrivialityLevel,
    associated_state,
    bell_phi_vector,
    expected_table_row,
    generate,
    required_parameters,
    rotated_product_vectors,
)
from ccslab.goldentable import golden_parameter_sets
from ccslab.sampling import rng_for
from ccslab.twoqubit import basis_ket, nonproduct_from_product, principal_vector

RT2 = math.sqrt(2.0)
RT5 = math.sqrt(5.0)


def _sampled_params(family, n=21):
    rng = rng_for(51, list(Family).index(family))
    out = []
    for k in range(n):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        xi, zeta = (float(x) for x in rng.uniform(-10.0, 10.0, size=2))
        phi = float(rng.uniform(0.0, math.pi / 2.0))
        c = math.cos(phi) * np.exp(1j * float(rng.uniform(0, 2 * math.pi)))
        s = math.sin(phi) * np.exp(1j * float(rng.uniform(0, 2 * math.pi)))
        out.append(FamilyParams(theta=theta, xi=xi, zeta=zeta, c=c, s=s))
    return out


@pytest.mark.parametrize("family", list(Family))
def test_every_family_generates_valid_partitions(family):
    # Partition construction validates orthogonality and completeness
    for params in _sampled_params(family):
        inst = generate(family, params)
        assert inst.partition.dim == 4
        assert inst.atomic == inst.partition.is_atomic()
        if inst.state is not None:
            assert inst.state.dim == 4


def test_rank_profiles():
    assert generate(Family.TrivAB2).partition.rank_profile() == (2, 2)
    assert generate(Family.CCSclass).partition.rank_profile() == (1, 1, 1, 1)
    assert generate(Family.CCS22ntrat, FamilyParams(theta=1.0)).partition.rank_profile() == (2, 2)


def _matches_up_to_phase_and_order(partition, vectors, tol=1e-9):
    remaining = list(vectors)
    for c in partition:
        g = principal_vector(c)
        hit = next(
            (k for k, v in enumerate(remaining) if abs(abs(np.vdot(v, g)) - 1.0) <= tol), None
        )
        if hit is None:
            return False
        remaining.pop(hit)
    return True


def test_rotated_family_degenerates_to_basis_family():
    basis = [basis_ket(i, j) for i in (0, 1) for j in (0, 1)]
    for theta in (0.0, math.pi, 2.0 * math.pi):
        inst = generate(Family.CCSclassU, FamilyParams(theta=theta))
        assert _matches_up_to_phase_and_order(inst.partition, basis)


def test_rotated_family_at_half_pi_is_plus_minus_basis():
    inst = generate(Family.CCSclassU, FamilyParams(theta=math.pi / 2.0))
    gabor = [principal_vector(c) for c in generate(Family.CCSGabor).partition]
    assert _matches_up_to_phase_and_order(inst.partition, gabor)


def test_exponential_family_uniform_point():
    inst = generate(Family.CCShyper, FamilyParams(xi=0.0, zeta=0.0))
    for c in inst.partition:
        assert np.abs(principal_vector(c)) == pytest.approx([0.5] * 4, abs=1e-12)


def test_quarter_turn_literals():
    inst = generate(Family.CCSclassUspec)
    g0 = principal_vector(inst.partition.elements[0])
    want = np.array([RT2 + 1.0, 1.0, 1.0, RT2 - 1.0]) / (2.0 * RT2)
    phase = g0[0] / abs(g0[0])
    assert np.allclose(g0 / phase, want, atol=1e-12)
    # and it is the rotated family at theta = pi/4
    rotated = generate(Family.CCSclassU, FamilyParams(theta=math.pi / 4.0))
    for a, b in zip(inst.partition, rotated.partition):
        assert np.allclose(a.op, b.op, atol=1e-12)


def test_twisted_family_is_the_diagonal_conjugation():
    for theta in (0.3, 1.2, 2.7):
        twist = generate(Family.CCStwist, FamilyParams(theta=theta)).partition
        built = nonproduct_from_product(rotated_product_vectors(theta), (0, 0, 0, math.pi))
        for a, b in zip(twist, built):
            assert np.allclose(a.op, b.op, atol=1e-12)


def test_rotated_antidiagonal_family_is_local_conjugation():
    u = np.array([[1.0, -1.0], [1.0, 1.0]], dtype=complex) / RT2
    uu = np.kron(u, u)
    for theta in (0.4, 1.9):
        plain = generate(Family.CCSntrat, FamilyParams(theta=theta)).partition
        rotated = generate(Family.CCSntratU, FamilyParams(theta=theta)).partition
        for a, b in zip(plain, rotated):
            assert np.allclose(uu @ a.op @ uu.conj().T, b.op, atol=1e-12)
    # the maximally correlated state vector is invariant under that conjugation
    bell = bell_phi_vector()
    assert np.allclose(uu @ bell, bell, atol=1e-12)


# ---------------------------------------------------------------------------
# associated states
# ---------------------------------------------------------------------------

def test_bell_state_families():
    bell = np.outer(bell_phi_vector(), bell_phi_vector().conj())
    for family in (Family.CCSntrat, Family.CCSntratU, Family.CCS22ntrat, Family.CCS22ntratU):
        assert np.allclose(associated_state(family, FamilyParams(theta=1.0)).rho, bell, atol=1e-12)


def test_reference_state_amplitudes():
    state = associated_state(Family.CCSclassUspec)
    psi = np.sqrt(np.diag(state.rho).real)
    want = np.array(
        [math.sqrt(RT5 + 1.0), math.sqrt(RT5 - 1.0), math.sqrt(RT5 - 1.0), math.sqrt(RT5 + 1.0)]
    ) / (2.0 * 5.0 ** 0.25)
    assert psi == pytest.approx(want, abs=1e-12)


def test_state_independent_family_has_no_state():
    with pytest.raises(NoAssociatedStateError):
        associated_state(Family.CCSclass)
    with pytest.raises(NoAssociatedStateError):
        associated_state(Family.CCSBell, FamilyParams(theta=1.0))


def test_rotated_family_state_needs_amplitudes():
    with pytest.raises(MissingParameterError):
        associated_state(Family.CCSclassU, FamilyParams(theta=1.0))
    state = associated_state(Family.CCSclassU, FamilyParams(theta=1.0, a=0.6, b=0.8))
    assert isinstance(state, DensityState)


def test_default_symmetric_state_is_valid():
    state = associated_state(Family.CLTP)
    assert np.trace(state.rho).real == pytest.approx(1.0, abs=1e-12)


def test_perfect_family_state_parameters():
    params = FamilyParams(c=1.0, s=0.0, r1=0.0, r2=0.0, r3=0.5)
    rho = associated_state(Family.CCSntratC, params).rho
    assert rho[0, 0].real == pytest.approx(0.75, abs=1e-12)
    assert rho[3, 3].real == pytest.approx(0.25, abs=1e-12)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

def test_missing_parameters_raise():
    with pytest.raises(MissingParameterError):
        generate(Family.CCSclassU)
    with pytest.raises(MissingParameterError):
        generate(Family.CCShyper, FamilyParams(xi=1.0))
    assert required_parameters(Family.CCSntratC) == ("c", "s")


def test_normalization_violations_raise():
    with pytest.raises(NormalizationError):
        generate(Family.CCSntratC, FamilyParams(c=1.0, s=1.0))
    with pytest.raises(NormalizationError):
        associated_state(Family.CLTP, FamilyParams(a=1.0, b=1.0))


def test_hyperbolic_overflow_is_a_validation_error():
    for xi, zeta in ((711.0, 0.0), (0.0, -711.0), (710.0, 0.0)):
        with pytest.raises(ValidationError):
            generate(Family.CCShyper, FamilyParams(xi=xi, zeta=zeta))
    assert generate(Family.CCShyper, FamilyParams(xi=709.0, zeta=709.0)).partition.dim == 4


def test_unknown_tag_rejected():
    with pytest.raises(KeyError):
        Family.from_tag("nope")


# ---------------------------------------------------------------------------
# reference rows
# ---------------------------------------------------------------------------

def test_reference_row_rotated_basis():
    row = expected_table_row(Family.CCSGabor)
    assert row.is_ccs and row.atomic
    assert row.commuting is CommutationClass.NONCOMMUTING
    assert row.all_product is True
    assert row.triviality is TrivialityLevel.STRONG
    assert row.ltp is True and row.deterministic is False


def test_reference_row_unresolved_ltp():
    row = expected_table_row(Family.CCSBell, FamilyParams(theta=math.pi / 3))
    assert row.ltp is None
    assert row.deterministic is False


def test_reference_row_parameter_conditions():
    degenerate = expected_table_row(Family.CCSntratC, FamilyParams(c=1.0, s=0.0))
    assert degenerate.commuting is CommutationClass.COMMUTING
    assert degenerate.all_product is True
    assert degenerate.triviality is TrivialityLevel.STRONG
    generic = expected_table_row(
        Family.CCSntratC, FamilyParams(c=1.0 / RT2, s=1j / RT2)
    )
    assert generic.commuting is CommutationClass.WEAKLY_COMMUTING
    assert generic.triviality is TrivialityLevel.NONTRIVIAL


def test_reference_row_rank_two_contrast():
    row = expected_table_row(Family.CCS22ntratC, FamilyParams(c=1.0 / RT2, s=1.0 / RT2))
    assert row.commuting is CommutationClass.NONCOMMUTING
    assert row.ltp is True and row.deterministic is True
    assert row.all_product is None


def test_reference_row_not_a_ccs():
    row = expected_table_row(Family.CLTP)
    assert row.is_ccs is False
    assert row.triviality is None and row.deterministic is None
    assert row.ltp is True


# ---------------------------------------------------------------------------
# catalog pin
# ---------------------------------------------------------------------------

# sha256 over every family's generate / associated_state / expected_table_row
# outcome on _pin_param_sets (see _catalog_digest)
CATALOG_DIGEST = "f0270340a185ef2995965b3c705b68c5ddaeb10131a4cac014dd8f21d8a62c61"

_NEAR_PI_OFFSETS = (0.0, 1e-10, -1e-10, 1e-9, 2e-9)


def _pin_param_sets(family):
    """Golden grid, 30 seeded off-grid points, theta near pi*Z, (c, s) near 0."""
    out = list(golden_parameter_sets(family))
    for i in range(30):
        rng = rng_for(61, list(Family).index(family), i)
        phi, psi, alpha, beta = (float(x) for x in rng.uniform(0.0, 2.0 * math.pi, size=4))
        xi, zeta = (float(x) for x in rng.uniform(-10.0, 10.0, size=2))
        r = rng.uniform(-0.5, 0.5, size=3)
        out.append(
            FamilyParams(
                theta=float(rng.uniform(-2.0 * math.pi, 4.0 * math.pi)),
                xi=xi,
                zeta=zeta,
                c=math.cos(phi) * np.exp(1j * alpha),
                s=math.sin(phi) * np.exp(1j * beta),
                a=math.cos(psi) if i % 2 else None,
                b=math.sin(psi) if i % 2 else None,
                r1=float(r[0]),
                r2=float(r[1]),
                r3=float(r[2]) if i % 3 else None,
            )
        )
    for k in (-1, 0, 1, 2):
        out.extend(FamilyParams(theta=k * math.pi + e) for e in _NEAR_PI_OFFSETS)
    for base in (0.0, math.pi / 2.0):
        for e in _NEAR_PI_OFFSETS:
            c, s = math.cos(base + e), math.sin(base + e)
            out.append(FamilyParams(c=c, s=s))
            out.append(FamilyParams(c=np.complex128(c), s=np.complex128(1j * s)))
    # missing parameters, then non-unit amplitudes with the rest supplied
    full = dict(theta=1.0, xi=0.5, zeta=-0.5, c=0.6, s=0.8)
    out.append(FamilyParams())
    out.append(FamilyParams(**{**full, "c": 1.0, "s": 1.0}))
    out.append(FamilyParams(**full, a=1.0, b=1.0))
    return out


def _cell(value):
    return value if value is None or isinstance(value, enum.Enum) else bool(value)


def _pin_bytes(value) -> bytes:
    """Arrays rounded to 6 decimals with -0.0 folded, so that libm builds
    differing in the last bits agree; rows cell by cell, numpy bools as bool."""
    if value is None:
        return b"None"
    if isinstance(value, FamilyInstance):
        parts = [(np.round(e.op, 6) + 0.0).tobytes() for e in value.partition]
        return b"|".join(parts + [repr(value.atomic).encode(), _pin_bytes(value.state)])
    if isinstance(value, DensityState):
        return (np.round(value.rho, 6) + 0.0).tobytes()
    return repr(tuple(_cell(getattr(value, f.name)) for f in dataclasses.fields(value))).encode()


def _catalog_digest() -> str:
    h = hashlib.sha256()
    for family in Family:
        for params in _pin_param_sets(family):
            for fn in (generate, associated_state, expected_table_row):
                try:
                    h.update(_pin_bytes(fn(family, params)))
                except CCSLabError as exc:  # type and message are part of the pin
                    h.update(f"{type(exc).__name__}: {exc}".encode())
    return h.hexdigest()


def test_catalog_outputs_are_pinned():
    assert _catalog_digest() == CATALOG_DIGEST


def test_table_row_cells_are_plain():
    for family in Family:
        for params in _pin_param_sets(family):
            try:
                row = expected_table_row(family, params)
            except MissingParameterError:
                continue
            for f in dataclasses.fields(row):
                value = getattr(row, f.name)
                assert value is None or type(value) is bool or isinstance(value, enum.Enum), (
                    family, params, f.name, type(value))
