"""Closed-form state parameters making the rotated product family obey the
law of total probability.

For the partition family at angle theta (rotated product basis, family id
CCSclassU) and the symmetric state family (a|00> + b|01> + b|10> - a|11>)/sqrt(2)
with real a, b, the law of total probability reduces to one homogeneous
quadratic

    u (a^2 - b^2) + 2 v a b  =  0,

with coefficients

    u = -(1/2) sin^2(theta) (1 + 2 cos^2(theta)),
    v = cos^3(theta) sin(theta),
    u^2 + v^2 = (1/4) sin^2(theta) (1 + 3 cos^2(theta)).

Writing a = cos(xi/2), b = sin(xi/2) turns it into u cos(xi) + v sin(xi) = 0,
solved on the branch (cos xi, sin xi) = (v, -u)/sqrt(u^2 + v^2), which keeps
xi in [0, pi] (the opposite branch would solve it as well).  At theta in
pi*Z both coefficients vanish and every (a, b) is a solution; the returned
value is the continuous limit of the branch on [0, pi], flagged non-unique.

The diagonal phase twist diag(1,1,1,-1) transports each solution to the
twisted partition family with the state sign flipped on |11>, leaving the
law of total probability intact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import CCSLabError, ValidationError
from .families import Family, FamilyParams, associated_state, generate

__all__ = [
    "DegenerateThetaError",
    "UVCoefficients",
    "LTPSolution",
    "uv_coefficients",
    "uv_coefficients_raw",
    "solve_state_params",
    "quadratic_residual",
    "transport_by_V",
    "plot_data",
    "format_plot_csv",
]


class DegenerateThetaError(CCSLabError):
    """theta is a multiple of pi, where the quadratic degenerates to 0 = 0."""


@dataclass(frozen=True)
class UVCoefficients:
    u: float
    v: float

    @property
    def norm(self) -> float:
        return math.hypot(self.u, self.v)


@dataclass(frozen=True)
class LTPSolution:
    """State parameters solving the quadratic at the given angle.

    a = cos(xi/2), b = sin(xi/2) with xi in [0, pi].  ``unique`` is False at
    theta in pi*Z, where every parameter pair solves the degenerate system
    and the continuous-limit representative is returned.
    """

    theta: float
    xi: float
    a: float
    b: float
    unique: bool = True


def uv_coefficients(theta: float) -> UVCoefficients:
    """Simplified closed forms of the quadratic's coefficients."""
    if not math.isfinite(theta):
        raise ValidationError("theta must be finite")
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    u = -0.5 * sin_t * sin_t * (1.0 + 2.0 * cos_t * cos_t)
    v = cos_t ** 3 * sin_t
    return UVCoefficients(u, v)


def uv_coefficients_raw(theta: float) -> UVCoefficients:
    """Unsimplified coefficient forms, kept as an independent cross-check.

    u is the coefficient of a^2 after moving the right-hand side over (the
    coefficient of b^2 is its opposite), v the mixed-term coefficient.
    """
    sin2 = math.sin(theta) ** 2
    cos2 = math.cos(theta) ** 2
    half_one_plus_cos2 = 0.5 * (1.0 + cos2)
    u = cos2 * half_one_plus_cos2 + 0.5 * sin2 * sin2 - 1.0
    v = math.cos(theta) * math.sin(theta) * (half_one_plus_cos2 - 0.5 * sin2)
    return UVCoefficients(u, v)


def quadratic_residual(a: float, b: float, theta: float) -> float:
    """|u (a^2 - b^2) + 2 v a b|; zero iff (a, b) solves the system at theta."""
    if abs(a * a + b * b - 1.0) > 1e-9:
        raise ValidationError("state parameters must satisfy a^2 + b^2 = 1")
    uv = uv_coefficients(theta)
    return abs(uv.u * (a * a - b * b) + 2.0 * uv.v * a * b)


def solve_state_params(theta: float, allow_degenerate: bool = True) -> LTPSolution:
    """Solve for (xi, a, b) at the given angle on the xi-in-[0, pi] branch.

    Boundary values on [0, pi]: xi(0) = 0 with (a, b) = (1, 0) and
    xi(pi) = pi with (a, b) = (0, 1).
    """
    uv = uv_coefficients(theta)
    n = uv.norm
    if n == 0.0:
        if not allow_degenerate:
            raise DegenerateThetaError(
                f"every (a, b) solves the system at theta = {theta!r} (multiple of pi)"
            )
        cos_t = math.cos(theta)
        # continuous limit of the branch: cos(xi) -> 2 cos^3/sqrt(1 + 3 cos^2) = +-1
        w = 2.0 * cos_t ** 3 / math.sqrt(1.0 + 3.0 * cos_t * cos_t)
        xi = 0.0 if w > 0.0 else math.pi
        return LTPSolution(theta, xi, math.sqrt((1.0 + w) / 2.0), math.sqrt((1.0 - w) / 2.0), False)
    cos_xi = uv.v / n
    sin_xi = -uv.u / n  # -u >= 0 for every theta, so xi lands in [0, pi]
    xi = math.atan2(sin_xi, cos_xi)
    a = math.sqrt(max((1.0 + cos_xi) / 2.0, 0.0))
    b = math.sqrt(max((1.0 - cos_xi) / 2.0, 0.0))
    return LTPSolution(theta, xi, a, b)


def _ltp_state_at(family: Family, theta: float):
    """The CCSclassU or CCStwist state at theta with the solved amplitudes."""
    sol = solve_state_params(theta)
    return associated_state(family, FamilyParams(theta=theta, a=sol.a, b=sol.b))


def transport_by_V(solution: LTPSolution) -> tuple:
    """Transport a solution through the diagonal phase twist.

    Returns the twisted partition at the solution's angle together with the
    twisted state (a|00> + b|01> + b|10> + a|11>)/sqrt(2); the pair satisfies
    the two-qubit law of total probability exactly like the untwisted one.
    """
    params = FamilyParams(theta=solution.theta, a=solution.a, b=solution.b)
    partition = generate(Family.CCStwist, params).partition
    state = associated_state(Family.CCStwist, params)
    return (partition, state)


def plot_data(theta_grid, validate: bool = True) -> list:
    """Rows (theta, xi, a, b) of solve_state_params over the grid.

    With ``validate`` the xi column is checked for continuity: adjacent jumps
    must stay below 10x the local grid spacing (unit-slope scale).
    """
    grid = [float(t) for t in theta_grid]
    if any(not math.isfinite(t) for t in grid):
        raise ValidationError("grid values must be finite")
    rows = []
    for t in grid:
        sol = solve_state_params(t)
        rows.append((sol.theta, sol.xi, sol.a, sol.b))
    if validate and len(rows) >= 2:
        for (t0, x0, _, _), (t1, x1, _, _) in zip(rows, rows[1:]):
            spacing = abs(t1 - t0)
            if spacing > 0.0 and abs(x1 - x0) > 10.0 * spacing:
                raise CCSLabError(
                    f"xi jumps by {abs(x1 - x0):.3g} over spacing {spacing:.3g} "
                    f"near theta = {t0:.6g}"
                )
    return rows


def format_plot_csv(rows) -> str:
    """CSV text: header theta,xi,a,b; 17 significant digits per value."""
    lines = ["theta,xi,a,b"]
    for row in rows:
        lines.append(",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"
