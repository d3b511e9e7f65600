"""Implicit HHT-alpha time stepping with Newton-Raphson stage solves.

Each step advances the nodal stress, rate and acceleration vectors.
The acceleration is the Newton unknown; stress and rate follow from the
Newmark relations

    S_{n+1}  = S_n + dt Sd_n + dt^2 [(1 - 2 beta)/2 Sdd_n + beta Sdd_{n+1}]
    Sd_{n+1} = Sd_n + dt [(1 - gamma) Sdd_n + gamma Sdd_{n+1}]

with beta = (1 - alpha)^2 / 4 and gamma = 1/2 - alpha derived from the
dissipation parameter alpha in [-1/3, 0].  Stress Dirichlet data at the
two boundary nodes is enforced exactly: before Newton starts, each
boundary acceleration is set to the value whose Newmark update hits the
prescribed stress, and every Newton update then solves only the interior
rows and columns of the tangent.  The drive is asked only for its stress
value; at t = 0 both boundary accelerations are 0.

The time-discrete residual weights the elastic and load terms with
alpha:

    R = F_inrt(S*, Sd*, Sdd_{n+1}) + (1+alpha) K S_{n+1} - alpha K S_n
        - [(1+alpha) L_{n+1} - alpha L_n]

where the starred quantities are the alpha-weighted stage states

    S*  = (1+alpha) S_{n+1}  - alpha S_n
    Sd* = (1+alpha) Sd_{n+1} - alpha Sd_n,

so the elastic term is the single product K S*.  This is the pairing
that keeps second-order accuracy with the beta and gamma above: the
converged acceleration is effectively a sample of the true acceleration
at t_{n+1} + alpha dt, and the gamma excess over 1/2 cancels exactly
that shift in the kinematic updates.  The cancellation
requires the inertial operator's state-dependent coefficients to be
sampled at the same shifted time, hence the stage states; evaluating
them at t_{n+1} instead degrades the scheme to first order whenever the
mass depends on the solution.  For a linear material (b = 0) the stage
states drop out of the (constant) coefficients and the method reduces
to the classical form exactly.

The consistent tangent chains through the Newmark updates and the
stage weighting:

    dR/dSdd = M(S*) + (1+alpha) { gamma dt C_nl + beta dt^2 [K + K_sig] }

with C_nl and K_sig the stage integrals of assembly, that is
assembly.stage_tangent with c_dot = (1+alpha) gamma dt and c =
(1+alpha) beta dt^2; at c = c_dot = 0 the same stage is the t = 0
balance, with the mass matrix M(S0) as tangent, that initial_acceleration
solves.  A stage's part at Sdd_{n+1} = 0 goes to the quadrature points,
and its elastic term K S* - L is formed, once.  Each Newton iterate then
interpolates only its acceleration, adds c K Sdd_{n+1} to that elastic
term in one BLAS call, and evaluates its stage at the points once
(fused eps', eps'', eps''') for both its residual and its tangent.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import assembly
from .constitutive import MaterialParams
from .fe_space import FeSpace, build_space

if TYPE_CHECKING:
    from .config import ScenarioConfig

# Step times per forcing call; a block is assembled when the loop reaches it.
LOAD_BLOCK = 32
# Absolute Newton threshold, for steps whose first residual vanishes.
NEWTON_ABS_FLOOR = 1.0e-12


@dataclass(frozen=True)
class HhtParams:
    """Dissipation parameter, step size and the derived Newmark pair."""

    alpha: float
    dt: float

    def __post_init__(self):
        if not -1.0 / 3.0 <= self.alpha <= 0.0:
            raise ValueError(f"alpha must lie in [-1/3, 0], got {self.alpha}")
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def beta_nm(self) -> float:
        return 0.25 * (1.0 - self.alpha) ** 2

    @property
    def gamma_nm(self) -> float:
        return 0.5 - self.alpha


@dataclass
class SystemState:
    """Nodal stress, stress rate and stress acceleration at time t."""

    t: float
    Sigma: np.ndarray
    Sigma_dot: np.ndarray
    Sigma_ddot: np.ndarray

    def __post_init__(self):
        n = len(self.Sigma)
        if len(self.Sigma_dot) != n or len(self.Sigma_ddot) != n:
            raise ValueError("state vectors must share one length")


@dataclass(frozen=True)
class NewtonSettings:
    """Convergence control for the per-step Newton iteration.

    The residual norm (Euclidean, unconstrained DoFs) must drop below
    tol relative to the first iterate of the step, with NEWTON_ABS_FLOOR
    as an absolute escape for vanishing first residuals.
    """

    tol: float
    k_max: int

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


@dataclass(frozen=True)
class BoundaryDrive:
    """Oscillatory stress Dirichlet data: 0 at x=0, A sin(omega t) at x=L."""

    A: float
    omega: float

    def value(self, t: float) -> float:
        return self.A * np.sin(self.omega * t)


@dataclass
class NewtonReport:
    iters: int
    history: list


class NewtonDivergedError(RuntimeError):
    """Newton failed to reach tolerance within k_max iterations."""

    def __init__(self, message: str, t: float, iters: int, history: list):
        super().__init__(message)
        self.t = t
        self.iters = iters
        self.history = history


def newmark_update(state_n: SystemState, Sigma_ddot_next: np.ndarray,
                   hht: HhtParams) -> tuple[np.ndarray, np.ndarray]:
    """Next stress and stress-rate vectors from the next acceleration."""
    dt, beta, gamma = hht.dt, hht.beta_nm, hht.gamma_nm
    Sigma_next = (state_n.Sigma + dt * state_n.Sigma_dot
                  + dt**2 * (0.5 * (1.0 - 2.0 * beta) * state_n.Sigma_ddot
                             + beta * Sigma_ddot_next))
    Sigma_dot_next = (state_n.Sigma_dot
                      + dt * ((1.0 - gamma) * state_n.Sigma_ddot
                              + gamma * Sigma_ddot_next))
    return Sigma_next, Sigma_dot_next


def boundary_acceleration(bc_value_next: float, node: int,
                          state_n: SystemState, hht: HhtParams) -> float:
    """Acceleration that makes the Newmark update hit bc_value_next exactly."""
    dt, beta = hht.dt, hht.beta_nm
    free = (state_n.Sigma[node] + dt * state_n.Sigma_dot[node]
            + dt**2 * 0.5 * (1.0 - 2.0 * beta) * state_n.Sigma_ddot[node])
    return (bc_value_next - free) / (beta * dt**2)


def _stage(space: FeSpace, p: MaterialParams, base: np.ndarray,
           base_dot: np.ndarray, c: float, c_dot: float, load) -> tuple:
    """Residual and tangent of the stage S = base + c Sdd, Sd = base_dot +
    c_dot Sdd as functions of Sdd; base goes to the points, and its
    elastic term K base - load is formed, once."""
    table = space.table
    base_q, base_dot_q = table.at_points(base, base_dot)
    K = assembly.assemble_stiffness(space)
    rest = K.matvec(base) - load

    def residual(sdd):
        sdd_q, = table.at_points(sdd)
        pts = assembly.stage_points(space, base_q + c * sdd_q,
                                    base_dot_q + c_dot * sdd_q, sdd_q, p)
        return pts, assembly.stage_residual(space, K.matvec(sdd, c, rest),
                                            pts, p)

    def tangent(pts):
        return assembly.stage_tangent(space, pts, c_dot, c, p)

    return residual, tangent


def step_system(state_n: SystemState, space: FeSpace, hht: HhtParams,
                p: MaterialParams, load_prev: np.ndarray | float = 0.0,
                load_next: np.ndarray | float = 0.0) -> tuple:
    """Residual and tangent of one step as functions of Sdd_{n+1}.

    Returns (residual, tangent): residual(sdd) evaluates the stage of
    the acceleration vector sdd once and returns (pts, R); tangent(pts)
    is the BandedMatrix dR/dSdd at those stage values.  `load_prev` /
    `load_next` are the assembled load vectors at t_n / t_{n+1}; 0.0
    means no load.
    """
    alpha, w, dt = hht.alpha, 1.0 + hht.alpha, hht.dt
    load = w * load_next - alpha * load_prev
    S, Sd, Sdd = state_n.Sigma, state_n.Sigma_dot, state_n.Sigma_ddot
    return _stage(space, p,
                  S + w * dt * Sd + w * dt**2 * (0.5 - hht.beta_nm) * Sdd,
                  Sd + w * dt * (1.0 - hht.gamma_nm) * Sdd,
                  w * hht.beta_nm * dt**2, w * hht.gamma_nm * dt, load)


def advance_step(state_n: SystemState, space: FeSpace, hht: HhtParams,
                 p: MaterialParams, newton: NewtonSettings,
                 drive: BoundaryDrive | None = None,
                 load_prev: np.ndarray | float = 0.0,
                 load_next: np.ndarray | float = 0.0,
                 ) -> tuple[SystemState, NewtonReport]:
    """Advance one HHT-alpha step by Newton iteration on the acceleration.

    Loads are as in step_system.  The boundary accelerations are fixed
    before the first iterate, so Newton updates only the interior DoFs.
    """
    t_next = state_n.t + hht.dt
    sdd = state_n.Sigma_ddot.copy()
    sdd[0] = boundary_acceleration(0.0, 0, state_n, hht)
    sdd[-1] = boundary_acceleration(
        0.0 if drive is None else drive.value(t_next), -1, state_n, hht)
    residual, tangent = step_system(state_n, space, hht, p, load_prev,
                                    load_next)
    pts, R = residual(sdd)
    ref_norm = math.sqrt(R[1:-1] @ R[1:-1])
    threshold = max(newton.tol * ref_norm, NEWTON_ABS_FLOOR)
    history = [ref_norm]
    iters = 0
    while True:
        r_norm = history[-1]
        if not math.isfinite(r_norm):
            raise NewtonDivergedError(
                f"Newton residual is not finite at t={t_next:.6g} "
                f"after {iters} iterations",
                t=t_next, iters=iters, history=history)
        if iters >= 1 and r_norm <= threshold:
            break
        if iters >= newton.k_max:
            raise NewtonDivergedError(
                f"Newton did not converge at t={t_next:.6g}: "
                f"|R|={r_norm:.3e} after {iters} iterations "
                f"(threshold {threshold:.3e})",
                t=t_next, iters=iters, history=history)
        try:
            sdd[1:-1] -= tangent(pts).interior().solve(R[1:-1])
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergedError(
                f"Newton tangent is singular at t={t_next:.6g}: {exc}",
                t=t_next, iters=iters, history=history) from exc
        iters += 1
        pts, R = residual(sdd)
        history.append(math.sqrt(R[1:-1] @ R[1:-1]))

    report = NewtonReport(iters=iters, history=history)
    Sigma, Sigma_dot = newmark_update(state_n, sdd, hht)
    return SystemState(t_next, Sigma, Sigma_dot, sdd), report


def initial_acceleration(space: FeSpace, Sigma0: np.ndarray,
                         Sigma_dot0: np.ndarray, p: MaterialParams,
                         load: np.ndarray | float = 0.0) -> np.ndarray:
    """Acceleration consistent with the semi-discrete balance at t = 0.

    Solves the interior rows of M(S0) Sdd0 = L(0) - F_vel(S0, Sd0) - K S0,
    the stage of step_system at c = c_dot = 0, with both boundary
    accelerations 0.  `load` is the assembled L(0).
    """
    sdd = np.zeros(space.n_dofs)
    # The balance is linear in Sdd0 with matrix M(S0), so one Newton step
    # from zero interior values solves it.
    residual, mass = _stage(space, p, Sigma0, Sigma_dot0, 0.0, 0.0, load)
    pts, R = residual(sdd)
    sdd[1:-1] -= mass(pts).interior().solve(R[1:-1])
    return sdd


def snapshot_schedule(dt: float, t_final: float, interval: float) -> list:
    """(step, t) of each state a run keeps, step k ending at min(k dt,
    t_final): t=0, the first step within dt/2 of each next multiple of
    `interval` (none if 0) and the last step, whose number ends the list.
    A run takes at least one step, so a t_final below dt/2 is reached."""
    n_steps = max(round(t_final / dt), 1)
    if abs(n_steps * dt - t_final) > 1e-9 * max(t_final, 1.0):
        n_steps = math.ceil(t_final / dt)
    kept, next_snap = [(0, 0.0)], interval
    for step in range(1, n_steps if interval else 0):
        t = min(step * dt, t_final)
        if t >= next_snap - 0.5 * dt:
            kept.append((step, t))
            next_snap = (math.floor((t + 0.5 * dt) / interval) + 1.0) * interval
    return kept + [(n_steps, min(n_steps * dt, t_final))]


@dataclass
class RunReport:
    """Aggregate statistics of one simulation: one Newton count per step."""

    newton_iters: list
    wall_time: float
    space: FeSpace
    residual_histories: list


def run_simulation(config: "ScenarioConfig",
                   forcing: Callable | None = None,
                   initial_sigma: Callable | None = None,
                   initial_rate: Callable | None = None,
                   ) -> tuple[list[SystemState], RunReport]:
    """Run a scenario from t=0 to t_final, collecting state snapshots.

    Initial stress / stress-rate profiles are nodal interpolants of the
    given callables (zero by default).  Snapshots are taken at t=0,
    every output.snapshot_interval and at t_final (snapshot_schedule).
    The initial acceleration is solved from the t=0 balance.

    `forcing(x, t)` gets the (n_cells, n_points) quadrature points and up
    to LOAD_BLOCK step times as t of shape (k, 1, 1); its result must
    broadcast to (k, n_cells, n_points).
    """
    space = build_space(config.mesh.L, config.mesh.n_cells,
                        config.mesh.degree_policy)
    hht = HhtParams(alpha=config.time.alpha, dt=config.time.dt)
    p = config.material
    drive = config.drive
    newton = config.newton

    Sigma0 = np.zeros(space.n_dofs)
    Sigma_dot0 = np.zeros(space.n_dofs)
    if initial_sigma is not None:
        Sigma0 = np.asarray(initial_sigma(space.dof_coords), dtype=float)
    if initial_rate is not None:
        Sigma_dot0 = np.asarray(initial_rate(space.dof_coords), dtype=float)

    t_final, dt = config.time.t_final, hht.dt
    schedule = snapshot_schedule(dt, t_final, config.output.snapshot_interval)
    n_steps = schedule[-1][0]
    keep = {step for step, _ in schedule[1:-1]}

    def block(lo):  # the end times of steps lo.. that one load block holds
        return np.minimum(np.arange(lo, min(lo + LOAD_BLOCK, n_steps + 1)) * dt, t_final)

    loads, load_prev = None, 0.0
    if forcing is not None:
        loads = assembly.assemble_load_at(space, forcing, block(0))
        load_prev = loads[0]
    Sigma_ddot0 = initial_acceleration(space, Sigma0, Sigma_dot0, p, load_prev)
    state = SystemState(0.0, Sigma0, Sigma_dot0, Sigma_ddot0)

    snapshots = [state]
    newton_iters = []
    histories = []

    t_start = _time.perf_counter()
    for step in range(n_steps):
        t_target = min((step + 1) * dt, t_final)
        step_hht = hht
        if abs(t_target - (state.t + dt)) > 1e-12 * max(t_final, 1.0):
            step_hht = HhtParams(alpha=hht.alpha, dt=t_target - state.t)
        load_next = 0.0
        if forcing is not None:
            if (step + 1) % LOAD_BLOCK == 0:
                loads = assembly.assemble_load_at(space, forcing, block(step + 1))
            load_next = loads[(step + 1) % LOAD_BLOCK]
        state, report = advance_step(state, space, step_hht, p, newton,
                                     drive, load_prev, load_next)
        state.t = t_target  # avoid accumulated roundoff in t
        newton_iters.append(report.iters)
        histories.append(report.history)
        load_prev = load_next
        if step + 1 in keep:
            snapshots.append(state)
    snapshots.append(state)

    run_report = RunReport(newton_iters=newton_iters,
                           wall_time=_time.perf_counter() - t_start,
                           space=space,
                           residual_histories=histories)
    return snapshots, run_report
