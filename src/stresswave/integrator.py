"""Implicit HHT-alpha time stepping with Newton-Raphson stage solves.

A state is the nodal stress, rate and acceleration vectors, kept as the
rows of one (3, n) array X = (S, Sd, Sdd).  The acceleration is the
Newton unknown; stress and rate follow from the Newmark relations,
written as predictors plus correctors (Hughes, The Finite Element
Method, 2000, ch. 9):

    S_{n+1}  = pred     + beta dt^2 Sdd_{n+1}
    Sd_{n+1} = pred_dot + gamma dt Sdd_{n+1}
    pred     = S_n + dt Sd_n + (1/2 - beta) dt^2 Sdd_n
    pred_dot = Sd_n + (1 - gamma) dt Sdd_n

with beta = (1 - alpha)^2 / 4 and gamma = 1/2 - alpha derived from the
dissipation parameter alpha in [-1/3, 0].  Each HhtParams holds one 4x3
coefficient matrix (HhtParams.newmark): one product with X_n gives the
predictor, its rate and the two stage bases below, and the next state
is written into a fresh X as pred + beta dt^2 Sdd and pred_dot +
gamma dt Sdd.  Stress Dirichlet data at the two boundary
nodes is enforced exactly: before Newton starts, each boundary
acceleration is set from the predictor row to the value whose corrector
hits the prescribed stress, and every Newton update then solves only the
interior rows and columns of the tangent.  The drive is asked only for
its stress value; at t = 0 both boundary accelerations are 0.

The run computes each step time t_k = min(k dt, t_final) once, for
LOAD_BLOCK steps at a time, and takes from those times the boundary
stresses (one drive call), the stage loads below (one array operation),
the short last step and the time of each new state.  advance_step is
given its time, boundary stress and stage load.

The time-discrete residual weights the elastic and load terms with
alpha:

    R = F_inrt(S*, Sd*, Sdd_{n+1}) + (1+alpha) K S_{n+1} - alpha K S_n
        - [(1+alpha) L_{n+1} - alpha L_n]

where the starred quantities are the alpha-weighted stage states

    S*  = (1+alpha) S_{n+1}  - alpha S_n  = base     + c Sdd_{n+1}
    Sd* = (1+alpha) Sd_{n+1} - alpha Sd_n = base_dot + c_dot Sdd_{n+1}

with base = (1+alpha) pred - alpha S_n (base_dot likewise), c =
(1+alpha) beta dt^2 and c_dot = (1+alpha) gamma dt, so the elastic term
is the single product K S*.  This is the pairing
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

with C_nl and K_sig the stage integrals of assembly.  Both come from one
assembly.StageKernel per step size, which run_simulation builds by
HhtParams.kernel before its first step (dt) and at a short last step,
together with that size's Newmark matrix, and hands to advance_step; the
t = 0 balance has its own at c = c_dot = 0, whose tangent is the mass
matrix M(S0) that initial_acceleration solves.  The kernel binds every
per-run constant once.  A step forms its bases, their values at the
quadrature points and its elastic term K base - L once.  Each
Newton iterate is then array operations only: it interpolates its
acceleration, evaluates the law at the points once for both residual and
tangent (eps''' only in a tangent), adds c K Sdd_{n+1} to the elastic
term in one BLAS gbmv and factors the tangent's interior block in the
kernel's own band, all in the one error-state scope of run_simulation.
"""
from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass
from functools import cached_property
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
    """Dissipation parameter, step size and the derived Newmark matrix."""

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

    @cached_property
    def newmark(self) -> tuple:
        """(N, corr), computed once per instance: the read-only 4x3 matrix N
        takes a state's rows (S, Sd, Sdd) to the predictors and the stage
        bases (pred, pred_dot, base, base_dot), and the read-only column
        corr = (beta dt^2, gamma dt) adds the next acceleration to pred and
        pred_dot."""
        dt, beta, gamma, w = self.dt, self.beta_nm, self.gamma_nm, 1.0 + self.alpha
        N = np.array([[1.0, dt, dt**2 * 0.5 * (1.0 - 2.0 * beta)],
                      [0.0, 1.0, dt * (1.0 - gamma)],
                      [1.0, w * dt, w * dt**2 * (0.5 - beta)],
                      [0.0, 1.0, w * dt * (1.0 - gamma)]])
        corr = np.array([[beta * dt**2], [gamma * dt]])
        for m in (N, corr):
            m.flags.writeable = False
        return N, corr

    def kernel(self, space: FeSpace, p: MaterialParams) -> tuple:
        """(kernel, newmark), the one value advance_step takes for both: a
        new stage kernel of a step of dt on `space` and material `p`, at
        (c, c_dot) = (1+alpha) (beta dt^2, gamma dt), and HhtParams.newmark."""
        w, dt = 1.0 + self.alpha, self.dt
        return (assembly.StageKernel(space, p, w * self.beta_nm * dt**2,
                                     w * self.gamma_nm * dt), self.newmark)


class SystemState:
    """Nodal stress, stress rate and stress acceleration at time t.

    The three vectors are the rows of the (3, n) array X, kept as given;
    Sigma, Sigma_dot and Sigma_ddot are views of them.
    """

    __slots__ = ("t", "X")

    def __init__(self, t: float, X: np.ndarray):
        self.t = t
        self.X = X

    @property
    def Sigma(self) -> np.ndarray:
        return self.X[0]

    @property
    def Sigma_dot(self) -> np.ndarray:
        return self.X[1]

    @property
    def Sigma_ddot(self) -> np.ndarray:
        return self.X[2]


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

    def value(self, t: float | np.ndarray):
        return self.A * np.sin(self.omega * t)


@dataclass
class NewtonReport:
    iters: int
    history: list


class NewtonDivergedError(RuntimeError):
    """Newton failed to reach tolerance within k_max iterations.

    `x` is the node that the message names (None: none), where the last
    residual is worst or a singular tangent's zero pivot is.  It pickles
    with its fields, so a process pool hands it back whole.
    """

    def __init__(self, message: str, t: float, iters: int, history: list,
                 x: float | None = None):
        super().__init__(message)
        self.t = t
        self.iters = iters
        self.history = history
        self.x = x

    def __reduce__(self):
        return type(self), (str(self), self.t, self.iters, self.history,
                            self.x)


def _interior_norm(R: np.ndarray) -> float:
    """Euclidean norm of R without its two boundary entries.  Where the
    sum of squares overflows while every entry is finite, the entries
    are scaled by the largest |R| first, so that only a residual with an
    inf or NaN entry, or a norm above the float range, reads as inf or
    NaN; the one dot of the usual case is unchanged."""
    r = R[1:-1]
    sq = r @ r
    if not math.isfinite(sq):
        big = float(np.max(np.abs(r), initial=0.0))
        if 0.0 < big < math.inf:  # no inf or NaN entry
            r = r / big
            return big * math.sqrt(r @ r)
    return math.sqrt(sq)


def advance_step(state_n: SystemState, t_next: float, stepper: tuple,
                 newton: NewtonSettings, bc: float = 0.0,
                 load: np.ndarray | float = 0.0,
                 ) -> tuple[SystemState, NewtonReport]:
    """Advance one HHT-alpha step by Newton iteration on the acceleration.

    `stepper` is HhtParams.kernel of the step length to t_next, `bc` the
    stress at x = L then and `load` the assembled stage load
    (1+alpha) L_{n+1} - alpha L_n (0.0 means none).  One product with the
    Newmark matrix gives the predictors and the stage bases; the boundary
    accelerations are fixed from the predictor before the first iterate,
    so Newton updates only the interior DoFs, in place in the next
    state's acceleration row, and the corrector adds that row to the
    predictors.  A HyperbolicityError names t_next, and a
    NewtonDivergedError names it and a node: where the residual it gave
    up on is worst, or the zero pivot of a singular tangent.
    """
    kernel, (N, corr) = stepper
    P = N.dot(state_n.X)  # pred, pred_dot, base, base_dot
    X = state_n.X.copy()
    sdd = X[2]
    k = corr.item(0)
    sdd[0] = (0.0 - P.item(0)) / k
    sdd[-1] = (bc - P.item(0, -1)) / k
    stage = kernel.stage(P[2], P[3], load, t_next)
    inner = sdd[1:-1]  # the Newton unknowns
    pts, R = kernel.residual(stage, sdd)
    ref_norm = _interior_norm(R)
    threshold = max(newton.tol * ref_norm, NEWTON_ABS_FLOOR)
    history = [ref_norm]
    iters = 0
    while True:
        r_norm = history[-1]
        if not math.isfinite(r_norm):
            x = kernel.worst_node(R)
            raise NewtonDivergedError(
                f"Newton residual is not finite (overflow or NaN) at "
                f"t={t_next:.6g}, x={x:.6g} after {iters} iterations",
                t=t_next, iters=iters, history=history, x=x)
        if iters >= 1 and r_norm <= threshold:
            break
        if iters >= newton.k_max:
            x = kernel.worst_node(R)
            raise NewtonDivergedError(
                f"Newton did not converge at t={t_next:.6g}, x={x:.6g}: "
                f"|R|={r_norm:.3e} after {iters} iterations "
                f"(threshold {threshold:.3e})",
                t=t_next, iters=iters, history=history, x=x)
        try:
            inner -= kernel.solve(pts, R[1:-1])
        except assembly.SingularMatrixError as exc:
            raise NewtonDivergedError(
                f"Newton tangent is singular at t={t_next:.6g}, "
                f"x={exc.x:.6g}: {exc}",
                t=t_next, iters=iters, history=history, x=exc.x) from exc
        iters += 1
        pts, R = kernel.residual(stage, sdd)
        history.append(_interior_norm(R))

    S = X[:2]
    np.multiply(corr, sdd, S)
    S += P[:2]
    return (SystemState(t_next, X),
            NewtonReport(iters=iters, history=history))


def initial_acceleration(space: FeSpace, Sigma0: np.ndarray,
                         Sigma_dot0: np.ndarray, p: MaterialParams,
                         load: np.ndarray | float = 0.0) -> np.ndarray:
    """Acceleration consistent with the semi-discrete balance at t = 0.

    Solves the interior rows of M(S0) Sdd0 = L(0) - F_vel(S0, Sd0) - K S0,
    the stage at c = c_dot = 0, with both boundary accelerations 0.
    `load` is the assembled L(0).  A HyperbolicityError names t=0.
    """
    sdd = np.zeros(space.n_dofs)
    kernel = assembly.StageKernel(space, p)
    # The balance is linear in Sdd0 with matrix M(S0), so one Newton step
    # from zero interior values solves it.
    pts, R = kernel.residual(kernel.stage(Sigma0, Sigma_dot0, load, 0.0), sdd)
    try:
        sdd[1:-1] -= kernel.solve(pts, R[1:-1])
    except assembly.SingularMatrixError as exc:  # rho * wj underflowed, say
        raise NewtonDivergedError(
            f"tangent is singular at t=0, x={exc.x:.6g}: {exc}",
            t=0.0, iters=0, history=[], x=exc.x) from exc
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
            q = (t + 0.5 * dt) / interval  # inf: keep every step
            next_snap = (math.floor(q) + 1.0) * interval if q < math.inf else t
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
                   on_keep: Callable | None = None,
                   space: FeSpace | None = None,
                   ) -> tuple[list[SystemState], RunReport]:
    """Run a scenario from t=0 to t_final, collecting state snapshots.

    Initial stress / stress-rate profiles are nodal interpolants of the
    given callables (zero by default).  Snapshots are taken at t=0,
    every output.snapshot_interval and at t_final (snapshot_schedule).
    The initial acceleration is solved from the t=0 balance.
    `on_keep(state)`, if given, is called with each snapshot as the run
    reaches it, so a writer can work while the run steps.  `space`, if
    given, is the space of config.mesh, which the caller built (the CLI
    builds one for the run and its writer); else the run builds it.

    `forcing(x, t)` gets the (n_cells, n_points) quadrature points and up
    to LOAD_BLOCK step times as t of shape (k, 1, 1); its result must
    broadcast to (k, n_cells, n_points).
    """
    if space is None:
        space = build_space(config.mesh.L, config.mesh.n_cells,
                            config.mesh.degree_policy)
    hht = HhtParams(alpha=config.time.alpha, dt=config.time.dt)
    p = config.material
    drive = config.drive
    newton = config.newton

    X0 = np.zeros((3, space.n_dofs))  # the initial state's rows
    for row, profile in zip(X0, (initial_sigma, initial_rate)):
        if profile is not None:
            row[:] = profile(space.dof_coords)

    t_final, dt = config.time.t_final, hht.dt
    schedule = snapshot_schedule(dt, t_final, config.output.snapshot_interval)
    n_steps = schedule[-1][0]
    keep = {step for step, _ in schedule[1:-1]}

    # one scope for the whole run: an overflow anywhere shows up as a
    # residual that is not finite, which Newton reports with its time
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        L = None
        if forcing is not None:
            L = assembly.assemble_load_at(space, forcing, [0.0])
        X0[2] = initial_acceleration(space, X0[0], X0[1], p,
                                     0.0 if L is None else L[0])
        snapshots, newton_iters, histories = [], [], []

        def kept(state: SystemState):
            snapshots.append(state)
            if on_keep is not None:
                on_keep(state)

        state = SystemState(0.0, X0)
        kept(state)
        stepper = hht.kernel(space, p)
        t_start = _time.perf_counter()
        for lo in range(0, n_steps, LOAD_BLOCK):
            # t_k = min(k dt, t_final) for k = lo..hi, where step k ends
            times = np.minimum(
                np.arange(lo, min(lo + LOAD_BLOCK, n_steps) + 1) * dt, t_final)
            loads = [0.0] * (len(times) - 1)
            if forcing is not None:
                L = np.concatenate((L[-1:], assembly.assemble_load_at(
                    space, forcing, times[1:])))
                loads = (1.0 + hht.alpha) * L[1:] - hht.alpha * L[:-1]
            for t_next, h, bc, load in zip(
                    times[1:].tolist(), np.diff(times).tolist(),
                    drive.value(times[1:]).tolist(), loads):
                if abs(h - dt) > 1e-12 * max(t_final, 1.0):
                    # only the last step, cut to t_final, is off dt by more
                    stepper = HhtParams(alpha=hht.alpha, dt=h).kernel(space, p)
                state, report = advance_step(state, t_next, stepper, newton,
                                             bc, load)
                newton_iters.append(report.iters)
                histories.append(report.history)
                if len(newton_iters) in keep:
                    kept(state)
    kept(state)

    run_report = RunReport(newton_iters=newton_iters,
                           wall_time=_time.perf_counter() - t_start,
                           space=space,
                           residual_histories=histories)
    return snapshots, run_report
