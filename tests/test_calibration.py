import numpy as np
import pytest

from stresswave.calibration import (StressStrainDataset, fit_material,
                                    generate_synthetic, load_dataset,
                                    sse_objective, write_fit_csv)


def test_dataset_validation():
    with pytest.raises(ValueError):
        StressStrainDataset(stresses=[0.0, 1.0], strains=[0.0, 0.5])
    with pytest.raises(ValueError):
        StressStrainDataset(stresses=[1.0, 1.0, 1.0], strains=[0.1, 0.2, 0.3])
    with pytest.raises(ValueError):
        StressStrainDataset(stresses=[0.0, 1.0, np.inf], strains=[0.0, 0.1, 0.2])


@pytest.mark.parametrize("kwargs, named", [
    (dict(sigma_max=0.0), "sigma_max"), (dict(sigma_max=np.nan), "sigma_max"),
    (dict(sigma_max=np.inf), "sigma_max"), (dict(noise=-0.01), "noise"),
    (dict(noise=np.nan), "noise"), (dict(b=-1.0), "b must"),
    (dict(b=np.nan), "b must"), (dict(a=0.0), "a must"),
    (dict(n_points=2), "got 2")])
def test_generate_synthetic_rejects_bad_parameters(kwargs, named):
    with pytest.raises(ValueError, match=named):
        generate_synthetic(**{"b": 1.0, "a": 1.5, **kwargs})


def test_sse_self_consistency():
    data = generate_synthetic(b=2.0, a=1.5, n_points=25)
    assert sse_objective(2.0, 1.5, data) == pytest.approx(0.0, abs=1e-28)


def test_sse_zero_data_any_params():
    data = StressStrainDataset(stresses=[0.0, 0.0, 0.0, 1e-300],
                               strains=[0.0, 0.0, 0.0, 0.0])
    assert sse_objective(1.0, 1.0, data) == pytest.approx(0.0, abs=1e-200)
    assert sse_objective(5.0, 0.3, data) == pytest.approx(0.0, abs=1e-200)


def test_sse_wrong_params_positive():
    data = generate_synthetic(b=2.0, a=1.5, n_points=25)
    assert sse_objective(1.0, 1.5, data) > 1e-3


def test_fit_recovers_noiseless_parameters():
    data = generate_synthetic(b=3.0, a=1.2, n_points=50, sigma_max=5.0)
    result = fit_material(data, init=(1.0, 1.0))
    assert result.b == pytest.approx(3.0, rel=1e-2)
    assert result.a == pytest.approx(1.2, rel=1e-2)
    assert result.r2 >= 0.999
    assert result.converged


def test_fit_linear_data_quality():
    sigmas = np.linspace(0.0, 2.0, 30)
    data = StressStrainDataset(stresses=sigmas, strains=sigmas.copy(),
                               label="linear")
    init = (0.5, 1.5)
    result = fit_material(data, init=init)
    assert result.sse <= sse_objective(*init, data) + 1e-15
    assert result.r2 >= 0.999


def test_fit_never_worse_than_init():
    data = generate_synthetic(b=1.3, a=2.2, n_points=40, noise=0.05, seed=3)
    for init in ((0.1, 0.5), (4.0, 3.0), (1.0, 1.0)):
        result = fit_material(data, init=init)
        assert result.sse <= sse_objective(*init, data) + 1e-15


def test_fit_rejects_bad_init():
    data = generate_synthetic(b=1.0, a=1.5)
    with pytest.raises(ValueError):
        fit_material(data, init=(-1.0, 1.0))
    with pytest.raises(ValueError):
        fit_material(data, init=(1.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        fit_material(data, init=(np.inf, 1.0))
    with pytest.raises(ValueError, match="max_iters"):
        fit_material(data, max_iters=0)


def test_fit_budget_exhaustion_flagged():
    data = generate_synthetic(b=4.2, a=2.7, n_points=60)
    result = fit_material(data, init=(1.0, 1.0), max_iters=2)
    assert not result.converged
    # best-so-far still improved on the initial guess
    assert result.sse <= sse_objective(1.0, 1.0, data)


def test_noisy_roundtrip_within_ten_percent():
    data = generate_synthetic(b=2.0, a=1.8, n_points=50, noise=0.01, seed=42)
    result = fit_material(data, init=(1.0, 1.0))
    assert result.b == pytest.approx(2.0, rel=0.1)
    assert result.a == pytest.approx(1.8, rel=0.1)


def test_dataset_file_roundtrip(tmp_path):
    data = generate_synthetic(b=1.4, a=1.1, n_points=12)
    path = tmp_path / "measured.csv"
    with open(path, "w") as fh:
        fh.write("stress,strain\n")
        for s, e in zip(data.stresses, data.strains):
            fh.write(f"{s:.17g},{e:.17g}\n")
    back = load_dataset(path)
    np.testing.assert_array_equal(back.stresses, data.stresses)
    np.testing.assert_array_equal(back.strains, data.strains)
    assert back.label == "measured"


def test_dataset_whitespace_and_comments(tmp_path):
    path = tmp_path / "plain.dat"
    path.write_text("# comment\n0.0  0.0\n1.0  0.7\n2.0  0.9\n")
    data = load_dataset(path, label="x")
    assert len(data.stresses) == 3 and data.label == "x"


@pytest.mark.parametrize("text, rows", [
    ("1.0\n2.0 0.5\n3.0 0.7\n4.0 0.8\n", None),
    ("2.0 0.5\n1.0\n3.0 0.7\n4.0 0.8\n", None),
    ("stress,strain\nsigma,eps\n2.0,0.5\n3.0,0.7\n4.0,0.8\n", None),
    ("# units: MPa\n\nstress\n2.0 0.5\n3.0 0.7\n4.0 0.8\n", 3),
])
def test_dataset_header_only_on_a_non_numeric_first_line(tmp_path, text, rows):
    path = tmp_path / "d.txt"
    path.write_text(text)
    if rows is None:
        with pytest.raises(ValueError, match="unparseable data line"):
            load_dataset(path)
    else:
        assert len(load_dataset(path).stresses) == rows


def test_fit_csv_row(tmp_path):
    data = generate_synthetic(b=1.0, a=1.5, n_points=20)
    result = fit_material(data, init=(1.0, 1.0))
    path = write_fit_csv(tmp_path / "fit.csv", data.label, result)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "label,b,a,sse,r2"
    fields = lines[1].split(",")
    assert fields[0] == data.label
    assert float(fields[1]) == pytest.approx(result.b)
    assert float(fields[4]) == pytest.approx(result.r2)


def test_generated_noise_is_seeded():
    d1 = generate_synthetic(b=1.0, a=1.5, noise=0.01, seed=7)
    d2 = generate_synthetic(b=1.0, a=1.5, noise=0.01, seed=7)
    np.testing.assert_array_equal(d1.strains, d2.strains)
