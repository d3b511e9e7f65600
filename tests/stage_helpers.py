"""A stage at the quadrature points from nodal vectors, for tests that
build residuals and tangents outside the integrator."""
from stresswave.assembly import stage_points


def nodal_stage_points(space, Sigma, Sigma_dot, Sigma_ddot, p):
    """stage_points of nodal vectors, interpolated to the points first."""
    return stage_points(
        space, *space.table.at_points(Sigma, Sigma_dot, Sigma_ddot), p)
