import json
import pickle

import numpy as np
import pytest

from stresswave import cli
from stresswave.assembly import assemble_stiffness
from stresswave.config import load_config, parse_config
from stresswave.fe_space import (FeSpace, build_space, cell_table, gauss_rule,
                                 lagrange_basis)
from stresswave.integrator import run_simulation
from stresswave.postprocess import sample_solution
from stresswave.verification import convergence_study, l2_error

from stage_helpers import banded

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
    with pytest.raises(ValueError, match="unknown degree policy"):
        build_space(1.0, 4, "uniform(\uff11)")  # a full-width digit 1
    # (2 n_cells / L)^2 overflows the stiffness; at 5e-324 the edges repeat
    for L in (5e-324, 1e-300):
        with pytest.raises(ValueError, match="too small to separate 4 cells"):
            build_space(L, 4, "uniform(1)")
    assert build_space(1e-150, 4, "uniform(3)").n_dofs == 13
    for L in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            build_space(L, 4)


def test_fe_space_rejects_non_finite_edges():
    for edges in ([0.0, float("nan"), 1.0], [0.0, 1.0, float("inf")]):
        with pytest.raises(ValueError):
            FeSpace(edges, [1, 1])


def _state(space):
    """Attribute names, their object ids and their pickled contents."""
    return {k: id(v) for k, v in vars(space).items()}, pickle.dumps(vars(space))


@pytest.fixture
def built(monkeypatch):
    """Every FeSpace constructed, with its state right after __init__."""
    spaces = []
    init = FeSpace.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        spaces.append((self, _state(self)))

    monkeypatch.setattr(FeSpace, "__init__", counted)
    return spaces


SMALL_RUN = {"material": {"b": 1.0}, "mesh": {"n_cells": 8},
             "time": {"dt": 1.0e-3, "t_final": 0.004},
             "output": {"snapshot_interval": 0.002, "samples": 16}}


def test_space_built_once_per_run(built, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(SMALL_RUN))
    parse_config(SMALL_RUN)
    load_config(cfg)
    assert len(built) == 0  # configs check the mesh rule, not a space
    out = str(tmp_path / "o")
    assert cli.main(["simulate", "--config", str(cfg), "--out", out,
                     "--quiet"]) == 0
    assert len(built) == 1
    assert cli.main(["sweep", "--grid", "b", "--jobs", "1", "--config",
                     str(cfg), "--out", out, "--quiet"]) == 0
    assert len(built) == 1 + 4
    convergence_study("spatial", parse_config(
        {**SMALL_RUN, "drive": {"A": 0.0}, "time": {"t_final": 1.0e-4}}),
        cells=(8,))
    assert len(built) == 1 + 4 + 1  # l2_error's table needs no second space


def test_nothing_writes_to_a_built_space(built):
    snapshots, report = run_simulation(parse_config(SMALL_RUN))
    space = report.space
    sample_solution(space, snapshots[-1].Sigma, snapshots[-1].Sigma_dot, 16)
    assemble_stiffness(space)
    l2_error(space, snapshots[-1].Sigma, snapshots[-1].t)
    [(first, state)] = built
    assert first is space
    assert _state(space) == state


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
        p = space.degrees[k]
        assert space.dof_table[k, p] == space.dof_table[k + 1, 0]
        assert np.all(space.dof_table[k, :p + 1]
                      == space.dof_table[k, 0] + np.arange(p + 1))


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
    uniform = build_space(1.0, 4, "uniform(2)").table
    assert uniform.ref.shape == (4, 3) and uniform.pick is None
    assert np.all(uniform.wj > 0.0)
    space = build_space(1.0, 10, "center_graded")
    table = space.table
    assert table.ref.shape == (15, 4)  # one 5-point block per degree
    for k, p in enumerate(space.degrees):
        # real nodes and points first, then zero-valued padding
        assert np.all(table.dofs[k, :p + 1] == space.dof_table[k, :p + 1])
        assert np.all(table.dofs[k, p + 1:] == space.dof_table[k, p])
        block = np.arange(5 * (p - 1), 5 * p)
        assert np.all(table.pick[k] == 15 * k + block)
        assert np.all(table.ref[block, p + 1:] == 0.0)
        assert np.all(table.wj[k, :p + 2] > 0.0)
        assert np.all(table.wj[k, p + 2:] == 0.0)
        mid = 0.5 * (space.cell_edges[k] + space.cell_edges[k + 1])
        assert np.all(table.x_q[k, p + 2:] == mid)


def _padded_shape(space, n_extra):
    """Per-cell basis values, derivatives and physical weights, padded
    like CellTable: the reference the BLAS kernels are pinned to."""
    m, nn, nq = space.n_cells, space.bandwidth + 1, space.bandwidth + n_extra
    shape, dshape = np.zeros((2, m, nq, nn))
    wj = np.zeros((m, nq))
    for k, p in enumerate(space.degrees):
        rule = gauss_rule(p + n_extra)
        vals, ders = lagrange_basis(NODES[p], rule.points)
        shape[k, :p + n_extra, :p + 1] = vals
        dshape[k, :p + n_extra, :p + 1] = ders
        jac = 0.5 * (space.cell_edges[k + 1] - space.cell_edges[k])
        wj[k, :p + n_extra] = rule.weights * jac
    return shape, dshape, wj


def _space(policy):
    if policy != "graded_edges":
        return build_space(1.3, 9, policy)
    # non-uniform cell widths (one jac per cell) and mixed degrees
    rng = np.random.default_rng(8)
    edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.3, 11))])
    return FeSpace(edges, rng.integers(1, 4, 11))


@pytest.mark.parametrize("policy", ["uniform(1)", "uniform(2)", "uniform(3)",
                                    "center_graded", "graded_edges"])
@pytest.mark.parametrize("n_extra", [2, 3])
def test_cell_table_weighted_tables(policy, n_extra):
    # at_points, the integrals of a load vector and of a mass matrix
    # (integrate against ref and ref_outer, summed into place) and the
    # stiffness equal the per-cell einsum forms over padded per-cell tables
    space = _space(policy)
    t = cell_table(space, n_extra)
    shape, dshape, wj = _padded_shape(space, n_extra)
    np.testing.assert_allclose(t.wj, wj, rtol=1e-15, atol=0)
    rng = np.random.default_rng(4)
    f = rng.normal(size=space.n_dofs)
    h = rng.normal(size=wj.shape)
    wshape = shape * wj[:, :, None]
    wouter = (wshape[..., None] * shape[:, :, None, :]).reshape(
        shape.shape[:2] + (-1,))
    dofs = space.dof_table

    def close(got, ref):
        np.testing.assert_allclose(got, ref, rtol=0,
                                   atol=1e-14 * np.max(np.abs(ref)))

    close(t.at_points(f)[0], np.einsum("mqi,mi->mq", shape, f[dofs]))
    close(np.bincount(dofs.ravel(), t.integrate(h * t.wj, t.ref).ravel(),
                      minlength=space.n_dofs),
          np.bincount(dofs.ravel(), np.einsum("mq,mqi->mi", h, wshape).ravel(),
                      minlength=space.n_dofs))
    close(banded(space, t.integrate(h * t.wj, t.ref_outer)),
          banded(space, np.einsum("mq,mqk->mk", h, wouter)))
    if n_extra == 2:
        close(assemble_stiffness(space),
              banded(space, np.einsum("mq,mqi,mqj->mij",
                                      wj / t.jac[:, None] ** 2,
                                      dshape, dshape)))


def test_global_polynomial_reproduction():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.0, 2.0, size=40)
    for policy, deg in (("uniform(1)", 1), ("uniform(2)", 2),
                        ("uniform(3)", 3), ("center_graded", 1)):
        space = build_space(2.0, 7, policy)
        coeffs = rng.uniform(-1, 1, size=deg + 1)
        poly = np.polynomial.Polynomial(coeffs)
        nodal = poly(space.dof_coords)
        np.testing.assert_allclose(space.evaluator(pts)(nodal), poly(pts),
                                   atol=1e-13)


@pytest.mark.parametrize("policy", ["uniform(1)", "center_graded"])
def test_cell_containing_edges(policy):
    # x = 0 is in the first cell, an interior edge x_k in cell k (on its
    # right) and x = L, which has no cell on its right, in the last cell
    space = build_space(2.0, 8, policy)
    edges = space.cell_edges
    np.testing.assert_array_equal(space.cell_containing(edges),
                                  [0, 1, 2, 3, 4, 5, 6, 7, 7])
    inside = 0.5 * (edges[:-1] + edges[1:])
    np.testing.assert_array_equal(space.cell_containing(inside), np.arange(8))


def test_fe_space_direct_construction_validates():
    with pytest.raises(ValueError):
        FeSpace(np.array([0.0, 1.0]), np.array([1, 2]))
    with pytest.raises(ValueError):
        FeSpace(np.array([0.0, 0.0, 1.0]), np.array([1, 1]))
    with pytest.raises(ValueError):
        FeSpace(np.array([0.0, 0.5, 1.0]), np.array([1, 5]))
    # 5 DoFs at bandwidth 3: fewer than the 2 bandwidth + 1 rows that
    # BLAS gbmv takes, so its first stage could not be formed
    with pytest.raises(ValueError, match=r"^5 DoFs at bandwidth 3: .* = 7, "
                                         r"the least size BLAS gbmv takes"):
        FeSpace(np.array([0.0, 0.5, 1.0]), np.array([1, 3]))
