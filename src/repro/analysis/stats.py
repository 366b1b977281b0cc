"""Statistics helpers for the evaluation figures.

Fig. 12a fits a linear regression of scheduling efficiency against
normalized step time (the paper reports R² = 0.98); Fig. 12b compares step
time CDFs and 95th percentiles. These helpers are plain numpy (the
regression is the closed form ``scipy.stats.linregress`` evaluates, bit
for bit), so experiments and tests share one implementation and the
package needs nothing beyond its declared dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Regression:
    """Ordinary least squares fit of y on x."""

    slope: float
    intercept: float
    r2: float
    n: int

    def predict(self, x):
        return self.slope * np.asarray(x) + self.intercept


def linear_regression(x: Sequence[float], y: Sequence[float]) -> Regression:
    """OLS fit with R² (squared Pearson correlation), as Fig. 12a reports."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if len(x) < 3:
        raise ValueError("regression needs at least 3 points")
    if x.max() == x.min():
        raise ValueError("regression needs at least two distinct x values")
    # population (co)variances, in linregress's operation order
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0 or ssym == 0.0:
        r = 0.0
    else:
        r = float(np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0))
    slope = ssxym / ssxm
    return Regression(
        slope=float(slope),
        intercept=float(np.mean(y) - slope * np.mean(x)),
        r2=r**2,
        n=len(x),
    )


def empirical_cdf(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(sorted values, cumulative probabilities) — Fig. 12b's curves."""
    v = np.sort(np.asarray(values, dtype=float))
    if v.size == 0:
        raise ValueError("empty sample")
    p = np.arange(1, v.size + 1) / v.size
    return v, p


def normalized_step_time(step_times: Sequence[float]) -> np.ndarray:
    """Normalize step times so the best (fastest) run scores 1.0.

    The paper's Fig. 12 plots ``min(step time) / step time``: a run at the
    distribution's fast edge scores ~1, slower runs score lower. Under this
    normalization the paper reports 95th-percentile 0.63 (baseline) vs
    0.998 (TAC) — i.e. nearly every TAC run is as fast as the fastest.
    """
    t = np.asarray(step_times, dtype=float)
    if np.any(t <= 0):
        raise ValueError("step times must be positive")
    return t.min() / t


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def coefficient_of_variation(values: Sequence[float]) -> float:
    """std/mean — the run-to-run consistency number behind Fig. 12b."""
    v = np.asarray(values, dtype=float)
    mean = v.mean()
    return float(v.std() / mean) if mean else float("nan")
