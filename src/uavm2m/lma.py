"""Damped nonlinear least-squares (Levenberg-Marquardt) on a residual vector.

Generic: hand it any residual function r(x), its Jacobian and a starting
point. Steps solve the damping-regularized normal equations
(J'J + lam*I) dx = J'r and are only accepted when they strictly reduce
||r||^2; the damping factor adapts up on rejection and down on acceptance.
`numeric_jacobian` gives a forward-difference Jacobian to check an analytic
one against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_DAMPING_INIT = 1e-3
_DAMPING_UP = 10.0  # on a rejected step
_DAMPING_DOWN = 0.1  # on an accepted step
_MAX_ITERS = 500
_RESIDUAL_TOL = 1e-10  # default stop test: converged once ||r|| is this small ...
_STEP_TOL = 1e-12  # ... or, with any stop test, an accepted step this short
# retries within one outer iteration before giving up on finding a
# descent step (each retry raises the damping by _DAMPING_UP)
_MAX_INNER = 60


@dataclass
class LmaResult:
    solution: np.ndarray
    residual: np.ndarray  # the residual at `solution`, as the stop test saw it
    iterations: int
    converged: bool
    # ||r||^2 at the start and after each accepted step; strictly decreasing
    # since these are exactly the values the acceptance test compares
    accepted_costs: list[float] = field(default_factory=list)


def numeric_jacobian(residual_fn: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray) -> np.ndarray:
    """Forward-difference Jacobian with per-coordinate step 1e-7 * max(|x_i|, 1)."""
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(residual_fn(x), dtype=float)
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = 1e-7 * max(abs(x[i]), 1.0)
        xh = x.copy()
        xh[i] += h
        jac[:, i] = (np.asarray(residual_fn(xh), dtype=float) - r0) / h
    return jac


def _small_residual(x: np.ndarray, r: np.ndarray) -> bool:
    return float(np.sqrt(r @ r)) <= _RESIDUAL_TOL


def solve(residual_fn: Callable[[np.ndarray], np.ndarray],
          x0,
          *,
          jacobian: Callable[[np.ndarray], np.ndarray],
          done: Callable[[np.ndarray, np.ndarray], bool] = _small_residual) -> LmaResult:
    """Minimize ||residual_fn(x)||^2 from x0, with `jacobian(x)` the
    Jacobian of the residual; returns the last accepted point, the best
    found, since a step is accepted only when it strictly lowers ||r||^2.

    `done(x, r)` is the stop test, asked at x0 and at every accepted point
    with its residual r; by default ||r|| <= 1e-10. An accepted step shorter
    than 1e-12 also stops the solve.

    Deterministic: identical inputs produce identical iterates. The residual
    must be finite at x0; non-finite residuals at trial points just reject
    the step (damping increases), and singular normal equations are handled
    the same way rather than raising.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual_fn(x), dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("residual is not finite at the initial point")

    lam = _DAMPING_INIT
    cost = float(r @ r)
    accepted = [cost]
    converged = bool(done(x, r))
    iters = 0

    while not converged and iters < _MAX_ITERS:
        iters += 1
        jac = np.asarray(jacobian(x), dtype=float)
        if not np.all(np.isfinite(jac)):
            break  # cannot build a step from here; report the point so far
        jtj = jac.T @ jac
        jtr = jac.T @ r
        eye = np.eye(x.size)

        step = None
        for _ in range(_MAX_INNER):
            try:
                delta = np.linalg.solve(jtj + lam * eye, jtr)
            except np.linalg.LinAlgError:
                lam *= _DAMPING_UP
                continue
            if not np.all(np.isfinite(delta)):
                lam *= _DAMPING_UP
                continue
            x_try = x - delta
            r_try = np.asarray(residual_fn(x_try), dtype=float)
            if np.all(np.isfinite(r_try)) and float(r_try @ r_try) < cost:
                step = delta
                x, r = x_try, r_try
                cost = float(r @ r)
                lam = max(lam * _DAMPING_DOWN, 1e-15)
                break
            lam *= _DAMPING_UP
        if step is None:
            break  # no descent step available at any damping

        accepted.append(cost)
        if done(x, r) or float(np.linalg.norm(step)) <= _STEP_TOL:
            converged = True

    return LmaResult(solution=x, residual=r, iterations=iters, converged=converged,
                     accepted_costs=accepted)
