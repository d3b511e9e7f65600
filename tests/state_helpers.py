"""States for tests: a state from its three vectors, a state at rest,
the Newmark step algebra spelled out term by term, as a reference for the
integrator's coefficient-matrix form (HhtParams.newmark), and the exact
discrete solution of the linear scheme, mode by mode."""
import numpy as np

from stresswave.assembly import assemble_stiffness
from stresswave.integrator import SystemState


def state(t, Sigma, Sigma_dot, Sigma_ddot) -> SystemState:
    """The state at t with these stress, rate and acceleration vectors."""
    return SystemState(t, np.array([Sigma, Sigma_dot, Sigma_ddot],
                                   dtype=float))


def zero_state(n_dofs: int, t: float = 0.0) -> SystemState:
    return SystemState(t, np.zeros((3, n_dofs)))


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


def linear_modal_oracle(space, p, hht, Sigma0, n_steps):
    """Nodal stress after n_steps HHT steps of the linear law (p.b = 0)
    from Sigma0 at rest, with no load and 0 stress at both ends.

    The interior K and M decouple in the modes of K phi = lam M phi,
    found from the Cholesky factor M = C C^T and eigh of C^-1 K C^-T,
    with each lam taken again as the Rayleigh quotient of its mode.
    Each modal amplitude then follows the scalar recursion of the
    scheme: qdd_{n+1} + (1+alpha) lam q_{n+1} - alpha lam q_n = 0, with
    q_{n+1} and qd_{n+1} the Newmark update of qdd_{n+1}.
    """
    from stage_helpers import reference_tangent, to_dense
    zero = np.zeros(space.n_dofs)
    K = to_dense(assemble_stiffness(space))[1:-1, 1:-1]
    M = to_dense(reference_tangent(space, zero, zero, zero, p))[1:-1, 1:-1]
    C_inv = np.linalg.inv(np.linalg.cholesky(M))
    lam, V = np.linalg.eigh(C_inv @ K @ C_inv.T)
    phi = C_inv.T @ V  # phi^T M phi = I and phi^T K phi = diag(lam)
    # eigh's lam errs by about eps lam_max in every mode, which the phase
    # of a slow mode adds up step by step; a mode's Rayleigh quotient errs
    # only to second order in the error of its shape
    lam = (np.einsum("ij,ij->j", phi, K @ phi)
           / np.einsum("ij,ij->j", phi, M @ phi))
    q = phi.T @ (M @ Sigma0[1:-1])
    qd, qdd = np.zeros_like(q), -lam * q
    dt, alpha, beta, gamma = hht.dt, hht.alpha, hht.beta_nm, hht.gamma_nm
    for _ in range(n_steps):
        pred = q + dt * qd + dt**2 * (0.5 - beta) * qdd
        pred_dot = qd + dt * (1.0 - gamma) * qdd
        qdd_next = (-lam * ((1.0 + alpha) * pred - alpha * q)
                    / (1.0 + (1.0 + alpha) * beta * dt**2 * lam))
        q = pred + beta * dt**2 * qdd_next
        qd = pred_dot + gamma * dt * qdd_next
        qdd = qdd_next
    Sigma = np.zeros(space.n_dofs)
    Sigma[1:-1] = phi @ q
    return Sigma
