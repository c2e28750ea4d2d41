"""Direct RK4 on the simplex: the reference for the log-coordinate integrator.

It advances the stacked state z itself with classic RK4 on the replicator
field, clips the tiny negatives the step can leave and renormalises each
player block after every step; a step that leaves a non-finite or clearly
negative coordinate raises IntegrationError.  Off-support coordinates stay
zero because the field vanishes there, where the library keeps them at
log 0 = -inf, so agreement with ``zsflow.dynamics._flow`` checks the
log-coordinate update and its softmax against a different formula.

``direct_flow`` has the signature of ``_flow``; tests swap it in with
monkeypatch so that ``integrate`` and ``integrate_batch`` run on it.
"""

from __future__ import annotations

import numpy as np

from zsflow import IntegrationError, IntegratorConfig
from zsflow.dynamics import _field, _Operator, _per_block


def direct_flow(op: _Operator, Z0: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Samples (steps + 1, B, n+m) of the flow from the stacked starts Z0."""
    nsteps, h = cfg.steps, cfg.step
    out = np.empty((nsteps + 1,) + Z0.shape)
    Z = out[0] = Z0
    for k in range(nsteps):
        K1 = _field(op, Z)
        K2 = _field(op, Z + 0.5 * h * K1)
        K3 = _field(op, Z + 0.5 * h * K2)
        K4 = _field(op, Z + h * K3)
        Z = Z + (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
        if not np.all(np.isfinite(Z)):
            raise IntegrationError(
                f"non-finite state at step {k + 1} (t = {(k + 1) * h:g})"
            )
        if np.any(Z < -1e-12):
            raise IntegrationError(
                f"negative coordinate at step {k + 1}; reduce the step size"
            )
        np.clip(Z, 0.0, None, out=Z)
        Z /= _per_block(op, np.add, Z)
        out[k + 1] = Z
    return out
