"""A definition-level reference for screening, in plain numpy.

Written from the definitions alone and sharing no code with ccslab (it
imports nothing from it), so a differential test against it checks core's
arithmetic rather than restating it:

- the conditional state rho_C = C rho C / Tr(rho C);
- conditional probabilities phi(X|C) = Tr(rho_C X);
- the screening defect of one element: the conditional correlation
  phi(AB|C) - phi(A|C) phi(B|C), and its balanced form
  phi(AB|C) phi(A'B'|C) - phi(AB'|C) phi(A'B|C).
"""

import numpy as np


def conditional_state(rho, c):
    """C rho C / Tr(rho C)."""
    return c @ rho @ c / np.trace(rho @ c).real


def screening_defects(rho, elements, a, b, eps_prob):
    """Per element: (probability, (original, balanced) defect), the defect None
    when the probability is <= eps_prob."""
    identity = np.eye(len(rho))
    out = []
    for c in elements:
        p = np.trace(rho @ c).real
        if p <= eps_prob:
            out.append((p, None))
            continue
        sigma = conditional_state(rho, c)

        def prob(x):
            return np.trace(sigma @ x).real

        original = prob(a @ b) - prob(a) * prob(b)
        balanced = prob(a @ b) * prob((identity - a) @ (identity - b)) - prob(
            a @ (identity - b)
        ) * prob((identity - a) @ b)
        out.append((p, (original, balanced)))
    return out


def screening_margin(rho, elements, a, b, eps_prob):
    """The largest |defect| over the elements of probability > eps_prob (0 if none)."""
    return max(
        (max(abs(f) for f in forms) for _, forms in screening_defects(rho, elements, a, b, eps_prob)
         if forms is not None),
        default=0.0,
    )
