import numpy as np
import pytest

from stresswave.fe_space import (FeSpace, build_space, gauss_rule,
                                 lagrange_basis)

# local nodes of degrees 1-3 on [-1, 1] (Gauss-Lobatto for p = 3)
NODES = {1: [-1.0, 1.0], 2: [-1.0, 0.0, 1.0],
         3: [-1.0, -1.0 / np.sqrt(5.0), 1.0 / np.sqrt(5.0), 1.0]}


def _map_to(rule, lo, hi):
    half = 0.5 * (hi - lo)
    return lo + half * (rule.points + 1.0), half * rule.weights


def test_gauss_one_point():
    rule = gauss_rule(1)
    assert rule.points == pytest.approx([0.0])
    assert rule.weights == pytest.approx([2.0])


def test_gauss_two_points_integrates_x2_on_unit_interval():
    x, w = _map_to(gauss_rule(2), 0.0, 1.0)
    assert np.sum(w * x**2) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_gauss_three_points_exact_degree5():
    x, w = _map_to(gauss_rule(3), 0.0, 1.0)
    assert np.sum(w * x**5) == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_gauss_weights_positive_and_sum():
    for n in range(1, 11):
        rule = gauss_rule(n)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(2.0)


def test_gauss_rejects_out_of_range():
    for n in (0, 11, -3):
        with pytest.raises(ValueError):
            gauss_rule(n)


def test_build_space_center_graded_degrees():
    space = build_space(1.0, 10, "center_graded")
    assert space.degrees.tolist() == [1, 2, 2, 3, 3, 3, 3, 2, 2, 1]


def test_build_space_center_graded_scales_with_length():
    space = build_space(4.0, 10, "center_graded")
    assert space.degrees.tolist() == [1, 2, 2, 3, 3, 3, 3, 2, 2, 1]


def test_build_space_dof_counts():
    assert build_space(1.0, 16, "uniform(1)").n_dofs == 17
    assert build_space(1.0, 2, "uniform(3)").n_dofs == 7


def test_build_space_rejects_bad_input():
    with pytest.raises(ValueError):
        build_space(1.0, 1, "uniform(1)")
    with pytest.raises(ValueError):
        build_space(0.0, 4, "uniform(1)")
    with pytest.raises(ValueError):
        build_space(1.0, 4, "uniform(4)")
    with pytest.raises(ValueError):
        build_space(1.0, 4, "chebyshev")


def test_dof_count_invariant():
    for n_cells in (2, 5, 10, 33):
        for policy in ("uniform(1)", "uniform(2)", "uniform(3)", "center_graded"):
            space = build_space(2.0, n_cells, policy)
            expected = int(np.sum(space.degrees + 1)) - (n_cells - 1)
            assert space.n_dofs == expected
            assert len(space.dof_coords) == space.n_dofs


def test_dofs_left_to_right_and_shared():
    space = build_space(1.0, 6, "center_graded")
    assert np.all(np.diff(space.dof_coords) > 0)
    for k in range(space.n_cells - 1):
        assert space.cell_dofs[k][-1] == space.cell_dofs[k + 1][0]
        assert len(space.cell_dofs[k]) == space.degrees[k] + 1


def test_shape_linear_midpoint():
    vals, _ = lagrange_basis(NODES[1], [0.0])
    assert vals[0] == pytest.approx([0.5, 0.5])


def test_shape_kronecker_at_nodes():
    for nodes in NODES.values():
        vals, _ = lagrange_basis(nodes, nodes)
        np.testing.assert_allclose(vals, np.eye(len(nodes)), atol=1e-14)


def test_shape_partition_of_unity():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, size=20)
    for nodes in NODES.values():
        vals, ders = lagrange_basis(nodes, pts)
        np.testing.assert_allclose(np.sum(vals, axis=1), 1.0, atol=1e-14)
        np.testing.assert_allclose(np.sum(ders, axis=1), 0.0, atol=1e-12)


def test_cell_table_padding():
    uniform = build_space(1.0, 4, "uniform(2)").batches()
    assert uniform.shape.shape == (4, 4, 3)
    assert np.all(uniform.weights > 0.0)
    space = build_space(1.0, 10, "center_graded")
    table = space.batches()
    assert table.shape.shape == (10, 5, 4)
    for k, p in enumerate(space.degrees):
        # real nodes and points first, then zero-valued padding
        assert np.all(table.dofs[k, :p + 1] == space.cell_dofs[k])
        assert np.all(table.dofs[k, p + 1:] == space.cell_dofs[k][-1])
        assert np.all(table.shape[k, :, p + 1:] == 0.0)
        assert np.all(table.weights[k, :p + 2] > 0.0)
        assert np.all(table.weights[k, p + 2:] == 0.0)
        mid = 0.5 * (space.cell_edges[k] + space.cell_edges[k + 1])
        assert np.all(table.x_q[k, p + 2:] == mid)


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(3)",
                                    "center_graded"])
@pytest.mark.parametrize("n_extra", [2, 3])
def test_cell_table_weighted_tables(policy, n_extra):
    t = build_space(1.3, 9, policy).batches(n_extra)
    wj = (t.weights * t.jac[:, None])[:, :, None]
    outer = (t.shape[:, :, :, None] * t.shape[:, :, None, :]).reshape(
        t.shape.shape[:2] + (-1,))
    np.testing.assert_allclose(t.wshape, t.shape * wj, rtol=1e-15, atol=0)
    np.testing.assert_allclose(t.wouter, outer * wj, rtol=1e-15, atol=0)


def test_global_polynomial_reproduction():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 2.0, size=40)
    for policy, deg in (("uniform(1)", 1), ("uniform(2)", 2),
                        ("uniform(3)", 3), ("center_graded", 1)):
        space = build_space(2.0, 7, policy)
        coeffs = rng.uniform(-1, 1, size=deg + 1)
        poly = np.polynomial.Polynomial(coeffs)
        nodal = poly(space.dof_coords)
        np.testing.assert_allclose(space.eval_field(nodal, pts), poly(pts),
                                   atol=1e-13)


def test_fe_space_direct_construction_validates():
    with pytest.raises(ValueError):
        FeSpace(np.array([0.0, 1.0]), np.array([1, 2]))
    with pytest.raises(ValueError):
        FeSpace(np.array([0.0, 0.0, 1.0]), np.array([1, 1]))
    with pytest.raises(ValueError):
        FeSpace(np.array([0.0, 0.5, 1.0]), np.array([1, 5]))
