"""Replicator dynamics: fixed-step RK4 integration, Lyapunov rates for the
sink component, and the product-distribution embedding check.

Both game modes run through one skew operator on the stacked state z = [x; y]:
K = [[0, M], [-M^T, 0]] with player blocks starting at 0 and n, and K = M with
a single block for a symmetric game.  Player payoffs are z K^T, and the
replicator field multiplies them, minus each block's average, by z.

The integrator advances u = log z with classic RK4 and recovers z by a
softmax within each block.  A stage reads its payoffs and their normalisers
off one product exp(u - block max) @ [K^T | X], where X sums the block that
scales each payoff; the state's block sums are one product with the
block-ones matrix J.  Off-support coordinates are u = log 0 = -inf, which the
update keeps exactly, so faces of the simplex are invariant and starts with
different supports batch together.  The same RK4 with per-block reductions,
a direct RK4 on the simplex and a multiplicative-weights step, whose small-step
limit is the flow, check it from the tests (tests/dynamics_oracle.py).

The sink-mass growth rate is evaluated in O(nm) per point, without the
(nm) x (nm) symmetrised matrix; only the embedding check, whose claim is the
explicit symmetrised field, builds that matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .game import Game, MixedProfile, _check_shape
from .prefgraph import build_graph
from .symmetrise import sym_float_matrix

MAX_SAMPLE_VALUES = 2**27  # (steps + 1) x starts x (n+m) per integration: 1 GiB of float64
MONOTONE_SLACK = 1e-8  # the largest dip mass_monotone tolerates
MONOTONE_SATURATION = 1e-12  # mass_monotone ignores samples after the mass passes 1 - this
SVG_TITLE = "sink mass"


class IntegrationError(RuntimeError):
    """Integration produced a non-finite or invalid state."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step integration parameters."""

    step: float = 0.01
    horizon: float = 200.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and math.isfinite(self.horizon)):
            raise ValueError("step and horizon must be finite")
        if not (self.step > 0):
            raise ValueError("step must be positive")
        if self.step > 0.1:
            raise ValueError("step must be at most 0.1")
        if self.horizon < 0:
            raise ValueError("horizon must be non-negative")
        if self.horizon > 0 and not (self.step < self.horizon):
            raise ValueError("step must be smaller than horizon")
        if not math.isfinite(self.horizon / self.step):
            raise ValueError("horizon / step overflows the step count")

    @property
    def steps(self) -> int:
        if self.horizon == 0:
            return 0
        # Guard against float fuzz in horizon / step before taking the ceiling.
        return max(1, math.ceil(self.horizon / self.step - 1e-9))


@dataclass(eq=False)
class Trajectory:
    """Sampled solution of the replicator flow.

    states holds one (samples, strategies) array per player; row k is the
    state at times[k].  mass and dist are the shares of the mass on and off
    the sink component of the game's preference graph (x_H and dist_content).
    """

    times: np.ndarray
    states: tuple[np.ndarray, ...]
    payoff: np.ndarray
    mass: np.ndarray
    dist: np.ndarray

    def __len__(self) -> int:
        return int(self.times.size)


class _Operator(NamedTuple):
    """Skew operator of a game on the stacked state of all players."""

    KT: np.ndarray  # K^T, so that payoffs of a (B, N) state Z are Z @ KT
    starts: np.ndarray  # first coordinate of each player block
    block: np.ndarray  # block index of each coordinate
    J: np.ndarray  # J[i, j] = 1 when i and j share a block: Z @ J sums each block
    KX: np.ndarray  # [K^T | X]: X sums the block that scales each payoff


def _operator(g: Game) -> _Operator:
    M = g.float_view
    if g.symmetric:
        K, starts = M, [0]
    else:
        K = np.zeros((g.n + g.m, g.n + g.m))
        K[: g.n, g.n :], K[g.n :, : g.n] = M, -M.T
        starts = [0, g.n]
    block = np.repeat(np.arange(len(starts)), np.diff(starts + [K.shape[0]]))
    J = (block[:, None] == block).astype(float)
    X = J if g.symmetric else 1.0 - J
    return _Operator(K.T, np.array(starts), block, J, np.hstack([K.T, X]))


def _stack(zs: Sequence[MixedProfile]) -> np.ndarray:
    return np.stack([np.concatenate(z.vectors) for z in zs])


def _shifted(op: _Operator, U: np.ndarray) -> np.ndarray:
    """U minus its maximum within each player block, so that exp(U) cannot overflow."""
    return U - np.maximum.reduceat(U, op.starts, axis=1).take(op.block, axis=1)


def _field(op: _Operator, Z: np.ndarray) -> np.ndarray:
    P = Z @ op.KT
    return Z * (P - (Z * P) @ op.J)


def _profile_masses(g: Game, Z: np.ndarray) -> np.ndarray:
    """Product masses over all profiles, row-major, of each stacked state in Z."""
    if g.symmetric:
        return Z
    return (Z[:, : g.n, None] * Z[:, None, g.n :]).reshape(len(Z), g.n * g.m)


def _mass_shares(g: Game, full: np.ndarray, inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shares of the mass on and off the profiles of the mask inside, per
    sample and start: each part over their sum, so that both lie in [0, 1]."""
    if g.symmetric:
        on, off = full[..., inside].sum(axis=-1), full[..., ~inside].sum(axis=-1)
    else:
        B = inside.reshape(g.n, g.m).astype(float)
        x, y = full[..., : g.n], full[..., g.n :]
        on, off = (((x @ P) * y).sum(axis=-1) for P in (B, 1.0 - B))
    return on / (on + off), off / (on + off)


def _flow(op: _Operator, Z0: np.ndarray, cfg: IntegratorConfig) -> np.ndarray:
    """Samples (steps + 1, B, n+m) of the flow from the stacked starts Z0."""
    nsteps, h = cfg.steps, cfg.step
    N = Z0.shape[1]
    on = Z0 > 0
    out = np.empty((nsteps + 1,) + Z0.shape)
    out[0] = Z0  # keep the exact start

    def stage(V: np.ndarray) -> np.ndarray:
        R = np.exp(_shifted(op, V)) @ op.KX
        return R[:, :N] / R[:, N:]

    # log 0 = -inf is expected; an overflow or NaN fails the finite check below.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        U = _shifted(op, np.log(Z0))
        W = np.exp(U)
        Z = W / (W @ op.J)
        for k in range(nsteps):
            K1 = Z @ op.KT
            K2 = stage(U + 0.5 * h * K1)
            K3 = stage(U + 0.5 * h * K2)
            K4 = stage(U + h * K3)
            U = _shifted(op, U + (h / 6.0) * (K1 + 2 * (K2 + K3) + K4))
            # On coordinates must be finite and off ones -inf; after the shift
            # a +inf can only show as NaN.
            if ((U > -np.inf) != on).any():
                raise IntegrationError(f"non-finite state at step {k + 1} (t = {(k + 1) * h:g})")
            W = np.exp(U)
            Z = out[k + 1] = W / (W @ op.J)
    return out


def integrate(g: Game, z0: MixedProfile, cfg: IntegratorConfig) -> Trajectory:
    """Integrate the replicator flow from z0 for cfg.horizon.

    Returns ceil(horizon/step) + 1 uniformly spaced samples.
    """
    return integrate_batch(g, [z0], cfg)[0]


def integrate_batch(
    g: Game, starts: Sequence[MixedProfile], cfg: IntegratorConfig
) -> list[Trajectory]:
    """Integrate several starts at once as one (B, n+m) state.

    Starts may have different supports: a coordinate that starts at zero is
    log 0 = -inf and stays exactly zero.  A run of more than MAX_SAMPLE_VALUES
    sampled values is refused before any work.
    """
    if not starts:
        raise ValueError("integrate_batch requires at least one start")
    for z in starts:
        _check_shape(g, z)
    size = (cfg.steps + 1) * len(starts) * (g.n + g.m)
    if size > MAX_SAMPLE_VALUES:
        raise ValueError(f"trajectory of {size} sampled values is over the cap {MAX_SAMPLE_VALUES}")
    inside = build_graph(g)._sink

    op = _operator(g)
    full = _flow(op, _stack(starts), cfg)  # (samples, B, n+m)
    times = np.arange(cfg.steps + 1) * cfg.step
    # x M y over the first and last blocks; both are x for a symmetric game.
    payoff = ((full[..., : g.n] @ g.float_view) * full[..., -g.m :]).sum(axis=-1)
    mass, dist = _mass_shares(g, full, inside)

    return [
        Trajectory(
            times=times.copy(),
            states=tuple(np.split(full[:, b, :], op.starts[1:], axis=1)),
            payoff=payoff[:, b],
            mass=mass[:, b],
            dist=dist[:, b],
        )
        for b in range(len(starts))
    ]


def lyapunov_rates(g: Game, zs: Sequence[MixedProfile]) -> np.ndarray:
    """Instantaneous growth rates of the sink mass x_H along the flow at each z in zs.

    Each rate is the weighted cut sum between the sink and its complement
    under the product masses of z, in O(nm) per point.
    """
    for z in zs:
        _check_shape(g, z)
    return _sink_rates(g, build_graph(g)._sink, _stack(zs)) if len(zs) else np.zeros(0)


def _sink_rates(g: Game, inside: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Cut-sum growth rates of the mass on the sink mask inside at each
    stacked state in Z: x_p S[p, q] x_q summed over p inside and q outside.

    S is M for a symmetric game.  Otherwise S[(i,j),(k,l)] = M[i,l] - M[k,j]
    factors the sum as a_in M b_out - a_out M b_in, with a_in, b_in the row
    and column sums of the product masses inside the sink, a_out, b_out those
    outside.
    """
    if g.symmetric:
        M = g.float_view
        return ((Z[:, inside] @ M[np.ix_(inside, ~inside)]) * Z[:, ~inside]).sum(axis=1)
    x, y = Z[:, : g.n], Z[:, g.n :]
    B = inside.reshape(g.n, g.m).astype(float)
    a_in, a_out = x * (y @ B.T), x * (y @ (1.0 - B).T)
    b_in, b_out = y * (x @ B), y * (x @ (1.0 - B))
    M = g.float_view
    return ((a_in @ M) * b_out).sum(axis=1) - ((a_out @ M) * b_in).sum(axis=1)


@dataclass(frozen=True)
class EmbeddingReport:
    """Worst-case gap between the product-rule derivative of the profile
    masses and the symmetrised single-population replicator field."""

    max_residual: float
    worst_profile: tuple[int, int]


def check_embedding(g: Game, z: MixedProfile) -> EmbeddingReport:
    """Compare d/dt (x1 (x) x2) computed two ways at z (non-symmetric games)."""
    if g.symmetric:
        raise ValueError("check_embedding requires a non-symmetric game")
    _check_shape(g, z)
    residual = _embedding_residuals(g, _stack([z]))[0]
    worst = int(residual.argmax())
    return EmbeddingReport(float(residual.max()), (worst // g.m, worst % g.m))


def _embedding_residuals(g: Game, Z: np.ndarray) -> np.ndarray:
    """|product-rule derivative - symmetrised field| of the profile masses,
    one row per stacked state of a non-symmetric game."""
    n = g.n
    dZ = _field(_operator(g), Z)
    dx, dy, x, y = dZ[:, :n, None], dZ[:, None, n:], Z[:, :n, None], Z[:, None, n:]
    via_product_rule = (dx * y + x * dy).reshape(len(Z), n * g.m)
    X = _profile_masses(g, Z)
    return np.abs(via_product_rule - X * (X @ sym_float_matrix(g).T))


def mass_monotone(mass: np.ndarray) -> bool:
    """Whether a sink-mass series is nondecreasing up to MONOTONE_SLACK.

    Once the mass exceeds 1 - MONOTONE_SATURATION the trajectory counts as
    converged and later samples are not compared.
    """
    m = np.asarray(mass, dtype=float)
    crossed = np.nonzero(m > 1.0 - MONOTONE_SATURATION)[0]
    end = int(crossed[0]) + 1 if crossed.size else m.size
    if end < 2:
        return True
    return bool(np.all(np.diff(m[:end]) >= -MONOTONE_SLACK))


def write_trajectory_csv(tr: Trajectory, g: Game, path: str) -> None:
    """CSV with header t, <coordinate labels...>, x_H, payoff, dist_content."""
    prefixes = ("",) if g.symmetric else ("p1:", "p2:")
    labels = [pre + s for pre, block in zip(prefixes, g.blocks) for s in block]
    header = ["t"] + labels + ["x_H", "payoff", "dist_content"]
    table = np.column_stack([tr.times, *tr.states, tr.mass, tr.payoff, tr.dist]).astype(float)
    row = ",".join(["%.17g"] * table.shape[1]) + "\n"  # one template per row
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for k in range(0, len(table), 4096):  # a block at a time, to bound memory
            fh.writelines(row % tuple(r) for r in table[k : k + 4096].tolist())


def write_trajectory_svg(tr: Trajectory, path: str) -> None:
    """Minimal polyline chart of x_H and dist_content against time."""
    width, height = 640, 360
    left, right, top, bottom = 50.0, 620.0, 20.0, 330.0
    tmax = float(tr.times[-1]) if float(tr.times[-1]) > 0 else 1.0
    stride = max(1, len(tr) // 1500)
    idx = list(range(0, len(tr), stride))
    if idx[-1] != len(tr) - 1:
        idx.append(len(tr) - 1)

    def poly(series: np.ndarray) -> str:
        pts = []
        for k in idx:
            px = left + (right - left) * float(tr.times[k]) / tmax
            py = bottom - (bottom - top) * min(max(float(series[k]), 0.0), 1.0)
            pts.append(f"{px:.2f},{py:.2f}")
        return " ".join(pts)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
        f'<text x="{left}" y="{top - 5}" font-size="12">{SVG_TITLE}</text>',
        f'<text x="{right - 60}" y="{bottom + 15}" font-size="11">t = {tmax:g}</text>',
        f'<text x="{left - 35}" y="{top + 10}" font-size="11">1.0</text>',
        f'<text x="{left - 35}" y="{bottom}" font-size="11">0.0</text>',
        f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{poly(tr.mass)}"/>',
        f'<polyline fill="none" stroke="#ff7f0e" stroke-width="1.5" points="{poly(tr.dist)}"/>',
        f'<text x="{right - 150}" y="{top + 10}" font-size="11" fill="#1f77b4">x_H</text>',
        f'<text x="{right - 100}" y="{top + 10}" font-size="11" fill="#ff7f0e">dist_content</text>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
