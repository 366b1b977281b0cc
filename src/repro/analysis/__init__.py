"""Statistics and plain-text reporting for the experiment drivers."""

from .render import bar_chart, format_table, scatter_sketch, write_csv
from .timeline import ascii_gantt
from .stats import (
    Regression,
    coefficient_of_variation,
    empirical_cdf,
    linear_regression,
    normalized_step_time,
    percentile,
)

__all__ = [
    "bar_chart",
    "format_table",
    "scatter_sketch",
    "write_csv",
    "ascii_gantt",
    "Regression",
    "coefficient_of_variation",
    "empirical_cdf",
    "linear_regression",
    "normalized_step_time",
    "percentile",
]
