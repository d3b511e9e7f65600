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
rows and columns of the tangent.

Each Newton iterate evaluates its stage at the quadrature points once
(fused eps', eps'', eps''') for both its residual and its tangent.
"""
from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import assembly
from .constitutive import MaterialParams
from .fe_space import FeSpace, build_space

if TYPE_CHECKING:
    from .config import ScenarioConfig


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

    @classmethod
    def zeros(cls, n_dofs: int, t: float = 0.0) -> "SystemState":
        return cls(t, np.zeros(n_dofs), np.zeros(n_dofs), np.zeros(n_dofs))


@dataclass(frozen=True)
class NewtonSettings:
    """Convergence control for the per-step Newton iteration.

    The residual norm (Euclidean, unconstrained DoFs) must drop below
    tol relative to the first iterate of the step, with abs_floor as an
    absolute escape for vanishing first residuals.
    """

    tol: float = 1.0e-10
    k_max: int = 20
    abs_floor: float = 1.0e-12

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.k_max < 1:
            raise ValueError("k_max must be >= 1")


@dataclass(frozen=True)
class BoundaryDrive:
    """Oscillatory stress Dirichlet data: 0 at x=0, A sin(omega t) at x=L."""

    amplitude: float = 0.02
    omega: float = 2.0 * np.pi

    def value(self, t: float) -> float:
        return self.amplitude * np.sin(self.omega * t)

    def accel(self, t: float) -> float:
        """Second time derivative of the drive (for consistent t=0 data)."""
        return -self.amplitude * self.omega**2 * np.sin(self.omega * t)


@dataclass
class NewtonReport:
    iters: int
    residual_norm: float
    history: list = field(default_factory=list)


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


def advance_step(state_n: SystemState, space: FeSpace, hht: HhtParams,
                 p: MaterialParams, newton: NewtonSettings,
                 drive: BoundaryDrive | None = None,
                 load_prev: np.ndarray | None = None,
                 load_next: np.ndarray | None = None,
                 ) -> tuple[SystemState, NewtonReport]:
    """Advance one HHT-alpha step by Newton iteration on the acceleration.

    `load_prev` / `load_next` are the assembled load vectors at t_n /
    t_{n+1}; None means no load.  The boundary accelerations are fixed
    before the first iterate, so Newton updates only the interior DoFs.
    """
    t_next = state_n.t + hht.dt
    alpha, w = hht.alpha, 1.0 + hht.alpha
    sdd = state_n.Sigma_ddot.copy()
    sdd[0] = boundary_acceleration(0.0, 0, state_n, hht)
    sdd[-1] = boundary_acceleration(
        0.0 if drive is None else drive.value(t_next), -1, state_n, hht)
    # Stage stress and rate: S* = base + c Sdd, Sd* = base_dot + c_dot Sdd
    pred, pred_dot = newmark_update(state_n, 0.0, hht)
    base = w * pred - alpha * state_n.Sigma
    base_dot = w * pred_dot - alpha * state_n.Sigma_dot
    c, c_dot = w * hht.beta_nm * hht.dt**2, w * hht.gamma_nm * hht.dt
    load = assembly.stage_load(load_next, load_prev, alpha)

    def residual_at(sdd_vec):
        Sigma = base + c * sdd_vec
        pts = assembly.stage_points(space, Sigma, base_dot + c_dot * sdd_vec,
                                    sdd_vec, p)
        return pts, assembly.stage_residual(space, Sigma, pts, load, p)

    pts, R = residual_at(sdd)
    ref_norm = float(np.linalg.norm(R[1:-1]))
    threshold = max(newton.tol * ref_norm, newton.abs_floor)
    history = [ref_norm]
    iters = 0
    while True:
        r_norm = history[-1]
        if not np.isfinite(r_norm):
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
        S = assembly.stage_tangent(space, pts, hht, p)
        try:
            sdd[1:-1] -= S.interior().solve(R[1:-1])
        except np.linalg.LinAlgError as exc:
            raise NewtonDivergedError(
                f"Newton tangent is singular at t={t_next:.6g}: {exc}",
                t=t_next, iters=iters, history=history) from exc
        iters += 1
        pts, R = residual_at(sdd)
        history.append(float(np.linalg.norm(R[1:-1])))

    report = NewtonReport(iters=iters, residual_norm=history[-1],
                          history=history)
    Sigma, Sigma_dot = newmark_update(state_n, sdd, hht)
    return SystemState(t_next, Sigma, Sigma_dot, sdd), report


def initial_acceleration(space: FeSpace, Sigma0: np.ndarray,
                         Sigma_dot0: np.ndarray, p: MaterialParams,
                         drive: BoundaryDrive | None = None,
                         forcing: Callable | None = None,
                         t0: float = 0.0) -> np.ndarray:
    """Acceleration consistent with the semi-discrete balance at t0.

    Solves the interior rows of M(S0) Sdd0 = L(t0) - F_vel(S0, Sd0) - K S0
    with the boundary accelerations set to the drive's second time
    derivative.
    """
    sdd = np.zeros(space.n_dofs)
    if drive is not None:
        sdd[-1] = drive.accel(t0)
    load = (0.0 if forcing is None
            else assembly.assemble_load_at(space, forcing, t0))
    # The balance is linear in Sdd0 with matrix M(S0), so one Newton step
    # from zero interior values solves it.
    R = assembly.stage_residual(space, Sigma0, assembly.stage_points(
        space, Sigma0, Sigma_dot0, sdd, p), load, p)
    M = assembly.assemble_mass(space, Sigma0, p)
    sdd[1:-1] -= M.interior().solve(R[1:-1])
    return sdd


@dataclass
class RunReport:
    """Aggregate statistics of one simulation."""

    steps: int
    total_newton_iters: int
    max_newton_iters: int
    newton_iters: list
    wall_time: float
    space: FeSpace
    residual_histories: list | None = None


def run_simulation(config: "ScenarioConfig",
                   forcing: Callable | None = None,
                   initial_sigma: Callable | None = None,
                   initial_rate: Callable | None = None,
                   solve_initial_accel: bool = True,
                   record_convergence: bool = False,
                   ) -> tuple[list[SystemState], RunReport]:
    """Run a scenario from t=0 to t_final, collecting state snapshots.

    Initial stress / stress-rate profiles are nodal interpolants of the
    given callables (zero by default).  Snapshots are taken at t=0,
    every output.snapshot_interval and at t_final.  The initial
    acceleration is solved from the t=0 balance unless
    solve_initial_accel is False (then it starts at zero).
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
    if solve_initial_accel:
        Sigma_ddot0 = initial_acceleration(space, Sigma0, Sigma_dot0, p,
                                           drive, forcing)
    else:
        Sigma_ddot0 = np.zeros(space.n_dofs)
    state = SystemState(0.0, Sigma0, Sigma_dot0, Sigma_ddot0)

    t_final = config.time.t_final
    n_steps = int(round(t_final / hht.dt))
    if abs(n_steps * hht.dt - t_final) > 1e-9 * max(t_final, 1.0):
        n_steps = int(np.ceil(t_final / hht.dt))

    interval = config.output.snapshot_interval
    next_snap = interval if interval else np.inf

    snapshots = [state]
    newton_iters = []
    histories = [] if record_convergence else None
    load_prev = None
    if forcing is not None:
        load_prev = assembly.assemble_load_at(space, forcing, 0.0)

    t_start = _time.perf_counter()
    for step in range(n_steps):
        t_target = min((step + 1) * hht.dt, t_final)
        step_hht = hht
        if abs(t_target - (state.t + hht.dt)) > 1e-12 * max(t_final, 1.0):
            step_hht = HhtParams(alpha=hht.alpha, dt=t_target - state.t)
        load_next = None
        if forcing is not None:
            load_next = assembly.assemble_load_at(space, forcing, t_target)
        state, report = advance_step(state, space, step_hht, p, newton,
                                     drive, load_prev, load_next)
        state.t = t_target  # avoid accumulated roundoff in t
        newton_iters.append(report.iters)
        if histories is not None:
            histories.append(report.history)
        load_prev = load_next
        if state.t >= next_snap - 0.5 * hht.dt and step < n_steps - 1:
            snapshots.append(state)
            next_snap = (np.floor((state.t + 0.5 * hht.dt) / interval) + 1.0) \
                * interval
    snapshots.append(state)

    run_report = RunReport(steps=n_steps,
                           total_newton_iters=int(np.sum(newton_iters)),
                           max_newton_iters=int(np.max(newton_iters)) if newton_iters else 0,
                           newton_iters=newton_iters,
                           wall_time=_time.perf_counter() - t_start,
                           space=space,
                           residual_histories=histories)
    return snapshots, run_report
