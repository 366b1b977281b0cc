"""Statistics helpers and text rendering."""

import os

import numpy as np
import pytest

from repro.analysis import (
    bar_chart,
    coefficient_of_variation,
    empirical_cdf,
    format_table,
    linear_regression,
    normalized_step_time,
    percentile,
    scatter_sketch,
    write_csv,
)


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
def test_regression_recovers_known_line():
    x = np.linspace(0, 1, 50)
    y = 2.5 * x + 1.0
    fit = linear_regression(x, y)
    assert fit.slope == pytest.approx(2.5)
    assert fit.intercept == pytest.approx(1.0)
    assert fit.r2 == pytest.approx(1.0)
    assert fit.predict([0.0, 1.0]) == pytest.approx([1.0, 3.5])


def test_regression_r2_drops_with_noise():
    rng = np.random.default_rng(0)
    x = np.linspace(0, 1, 200)
    clean = linear_regression(x, x).r2
    noisy = linear_regression(x, x + rng.normal(0, 0.5, 200)).r2
    assert noisy < clean


def test_regression_input_validation():
    with pytest.raises(ValueError):
        linear_regression([1, 2], [1, 2])
    with pytest.raises(ValueError):
        linear_regression([1, 2, 3], [1, 2])


def test_regression_matches_hand_computation():
    # Sxx = 5, Sxy = 5.5, Syy = 8.75 about the means (1.5, 2.75)
    fit = linear_regression([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 2.0, 5.0])
    assert fit.slope == pytest.approx(1.1)
    assert fit.intercept == pytest.approx(1.1)
    assert fit.r2 == pytest.approx(5.5**2 / (5.0 * 8.75))
    assert fit.n == 4


def test_regression_degenerate_inputs():
    flat = linear_regression([1.0, 2.0, 3.0], [2.0, 2.0, 2.0])
    assert (flat.slope, flat.intercept, flat.r2) == (0.0, 2.0, 0.0)
    with pytest.raises(ValueError, match="distinct x"):
        linear_regression([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_regression_is_bit_identical_to_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n) * rng.uniform(0.01, 100.0)
        y = rng.uniform(-3, 3) * x + rng.normal(size=n) * rng.uniform(0, 10)
        fit = linear_regression(x, y)
        ref = scipy_stats.linregress(x, y)
        assert fit.slope == float(ref.slope)
        assert fit.intercept == float(ref.intercept)
        assert fit.r2 == float(ref.rvalue) ** 2


def test_package_imports_without_scipy():
    """The package imports under its declared numpy-only dependencies."""
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro.api, repro.experiments.cli; "
        "assert 'scipy' not in sys.modules, sorted("
        "m for m in sys.modules if m.startswith('scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_empirical_cdf_monotone():
    xs, ps = empirical_cdf([3.0, 1.0, 2.0, 2.0])
    assert xs.tolist() == [1.0, 2.0, 2.0, 3.0]
    assert ps.tolist() == [0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError):
        empirical_cdf([])


def test_normalized_step_time_best_is_one():
    norm = normalized_step_time([2.0, 4.0, 8.0])
    assert norm.tolist() == [1.0, 0.5, 0.25]
    with pytest.raises(ValueError):
        normalized_step_time([0.0, 1.0])


def test_percentile_and_cv():
    vals = list(range(1, 101))
    assert percentile(vals, 95) == pytest.approx(95.05)
    assert coefficient_of_variation([5, 5, 5]) == 0.0
    assert coefficient_of_variation([1, 3]) > 0


# ----------------------------------------------------------------------
# render
# ----------------------------------------------------------------------
def test_format_table_alignment():
    rows = [{"model": "VGG-16", "gain": 12.345}, {"model": "AlexNet", "gain": 3.0}]
    text = format_table(rows, title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "model" in lines[1] and "gain" in lines[1]
    assert "12.35" in text  # default .2f
    assert len(set(len(l) for l in lines[2:])) <= 2  # aligned body


def test_format_table_empty():
    assert "(no rows)" in format_table([], title="x")


def test_format_table_column_selection():
    rows = [{"a": 1, "b": 2}]
    text = format_table(rows, columns=["b"])
    assert "b" in text and "a" not in text.splitlines()[0]


def test_bar_chart_scales_and_signs():
    text = bar_chart(["up", "down"], [10.0, -5.0], width=10, unit="%")
    lines = text.splitlines()
    assert lines[0].count("#") == 10
    assert lines[1].count("-") >= 5
    with pytest.raises(ValueError):
        bar_chart(["a"], [1.0, 2.0])


def test_scatter_sketch_contains_markers():
    text = scatter_sketch([0, 1, 2], [0, 1, 4], rows=5, cols=20)
    assert text.count("*") >= 2
    with pytest.raises(ValueError):
        scatter_sketch([], [])


def test_write_csv_roundtrip(tmp_path):
    path = os.path.join(tmp_path, "sub", "out.csv")
    rows = [{"a": 1, "b": "x"}, {"a": 2, "c": 3.5}]
    write_csv(path, rows)
    content = open(path).read().splitlines()
    assert content[0] == "a,b,c"
    assert content[1].startswith("1,x")
    with pytest.raises(ValueError):
        write_csv(os.path.join(tmp_path, "empty.csv"), [])
