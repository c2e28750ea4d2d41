"""References for the replicator flow: the per-block log-coordinate RK4,
direct RK4 on the simplex, one multiplicative-weights step, and the dense
sink-mass rate.

``log_rk4_flow`` is the log-coordinate RK4 written with one per-block
reduction per sum and one softmax per stage.  ``zsflow.dynamics._flow`` runs
the same arithmetic with the block sums and each stage's normaliser taken
from matrix products, so the two agree to rounding.

``direct_flow`` advances the stacked state z itself with classic RK4 on the
replicator field, clips the tiny negatives the step can leave and
renormalises each player block after every step; a step that leaves a non-finite or clearly
negative coordinate raises IntegrationError.  Off-support coordinates stay
zero because the field vanishes there, where the library keeps them at
log 0 = -inf, so agreement with ``zsflow.dynamics._flow`` checks the
log-coordinate update and its softmax against a different formula.

``log_rk4_flow`` and ``direct_flow`` have the signature of ``_flow``; tests
swap them in with monkeypatch so that ``integrate`` and ``integrate_batch``
run on them.

``mwu_step`` is x'_s proportional to x_s e^(eta u_s); as eta -> 0 its
displacement per unit eta tends to the replicator field.  ``dense_sink_rates``
is the cut sum through the explicit (nm) x (nm) symmetrised matrix, the form
that ``zsflow.dynamics._sink_rates`` factors into row and column sums.

``set_shares`` measures a state's mass on any node set H the way a
trajectory's ``mass`` and ``dist`` series measure it on the sink.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from zsflow import Game, IntegrationError, IntegratorConfig, MixedProfile
from zsflow.dynamics import _field, _mass_shares, _operator, _Operator, _profile_masses, _stack
from zsflow.game import Profile, _check_shape
from zsflow.symmetrise import sym_float_matrix


def _per_block(op: _Operator, reduce: np.ufunc, A: np.ndarray) -> np.ndarray:
    """Reduce each row of A within every player block, broadcast back to A's shape."""
    return reduce.reduceat(A, op.starts, axis=1)[:, op.block]


def _softmax(op: _Operator, U: np.ndarray) -> np.ndarray:
    W = np.exp(U - _per_block(op, np.maximum, U))
    return W / _per_block(op, np.add, W)


def log_rk4_flow(op: _Operator, Z0: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Samples (steps + 1, B, n+m) of the flow from the stacked starts Z0."""
    nsteps, h = cfg.steps, cfg.step
    on = Z0 > 0
    out = np.empty((nsteps + 1,) + Z0.shape)
    out[0] = Z0  # keep the exact start
    # log 0 = -inf is expected; an overflow or NaN fails the finite check below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        U = np.log(Z0)
        Z = _softmax(op, U)
        for k in range(nsteps):
            K1 = Z @ op.KT
            K2 = _softmax(op, U + 0.5 * h * K1) @ op.KT
            K3 = _softmax(op, U + 0.5 * h * K2) @ op.KT
            K4 = _softmax(op, U + h * K3) @ op.KT
            U = U + (h / 6.0) * (K1 + 2 * K2 + 2 * K3 + K4)
            # Softmax is shift invariant within a block.
            U -= _per_block(op, np.maximum, U)
            if not np.all(np.where(on, np.isfinite(U), U == -np.inf)):
                raise IntegrationError(f"non-finite state at step {k + 1} (t = {(k + 1) * h:g})")
            Z = out[k + 1] = _softmax(op, U)
    return out


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


def mwu_step(g: Game, z: MixedProfile, eta: float) -> MixedProfile:
    """One multiplicative-weights update x'_s proportional to x_s e^(eta u_s)."""
    if not (eta > 0):
        raise ValueError("eta must be positive")
    _check_shape(g, z)
    op = _operator(g)
    Z = _stack([z])
    with np.errstate(divide="ignore"):
        W = _softmax(op, np.log(Z) + eta * (Z @ op.KT))[0]
    return MixedProfile(tuple(np.split(W, op.starts[1:])))


def dense_sink_rates(g: Game, inside: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """x_p S[p, q] x_q summed over p in the sink mask inside and q outside,
    with S = M for a symmetric game and the symmetrised matrix otherwise."""
    X = _profile_masses(g, Z)
    S = g.float_view if g.symmetric else sym_float_matrix(g)
    return ((X[:, inside] @ S[np.ix_(inside, ~inside)]) * X[:, ~inside]).sum(axis=1)


def set_shares(g: Game, z: MixedProfile, H: Iterable[Profile]) -> tuple[float, float]:
    """The shares of z's product mass on and off the profiles in H."""
    _check_shape(g, z)
    on, off = _mass_shares(g, _stack([z]), g.node_mask(H))
    return float(on[0]), float(off[0])
