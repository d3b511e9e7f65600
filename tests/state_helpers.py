"""A state at rest, for tests that start a step or an update from zero."""
import numpy as np

from stresswave.integrator import SystemState


def zero_state(n_dofs: int, t: float = 0.0) -> SystemState:
    return SystemState(t, np.zeros(n_dofs), np.zeros(n_dofs), np.zeros(n_dofs))
