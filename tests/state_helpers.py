"""States for tests: a state at rest, and the Newmark step algebra spelled
out term by term, as a reference for the integrator's coefficient-matrix
form (HhtParams.newmark)."""
import numpy as np

from stresswave.integrator import SystemState


def zero_state(n_dofs: int, t: float = 0.0) -> SystemState:
    return SystemState(t, np.zeros(n_dofs), np.zeros(n_dofs), np.zeros(n_dofs))


def newmark_update(state_n, sdd, hht):
    """Next stress and stress-rate vectors from the next acceleration:
    S + dt Sd + dt^2 [(1 - 2 beta)/2 Sdd + beta sdd] and
    Sd + dt [(1 - gamma) Sdd + gamma sdd]."""
    dt, beta, gamma = hht.dt, hht.beta_nm, hht.gamma_nm
    Sigma = (state_n.Sigma + dt * state_n.Sigma_dot
             + dt**2 * (0.5 * (1.0 - 2.0 * beta) * state_n.Sigma_ddot
                        + beta * sdd))
    Sigma_dot = (state_n.Sigma_dot
                 + dt * ((1.0 - gamma) * state_n.Sigma_ddot + gamma * sdd))
    return Sigma, Sigma_dot


def boundary_acceleration(bc, node, state_n, hht):
    """Acceleration at `node` whose newmark_update stress is bc."""
    dt, beta = hht.dt, hht.beta_nm
    free = (state_n.Sigma[node] + dt * state_n.Sigma_dot[node]
            + dt**2 * 0.5 * (1.0 - 2.0 * beta) * state_n.Sigma_ddot[node])
    return (bc - free) / (beta * dt**2)
