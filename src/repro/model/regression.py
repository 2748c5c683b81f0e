"""Ordinary-least-squares linear regression with Table II statistics.

Implements exactly what the paper reports per feature: coefficient
estimate, standard error, t value, and ``Pr(>|t|)``, plus the paper's
precision metric ``mean(|actual - predicted| / actual) * 100``.

Built on :func:`numpy.linalg.lstsq` with the covariance machinery done
explicitly (no statsmodels in the environment); p-values use
:mod:`scipy.stats`, imported inside :meth:`LinearRegression.fit` so that
planning — which loads pretrained coefficients and never fits — does not
pay for importing scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True)
class CoefficientStats:
    """One row of the Table II summary."""

    name: str
    estimate: float
    std_error: float
    t_value: float
    p_value: float

    def format_row(self) -> str:
        p = "<2e-16" if self.p_value < 2e-16 else f"{self.p_value:.3g}"
        return (
            f"{self.name:<14s} {self.estimate: .3e}  {self.std_error:.3e}  "
            f"{self.t_value:9.2f}  {p}"
        )


@dataclass(frozen=True)
class RegressionSummary:
    """Fit statistics in the paper's reporting format."""

    rows: List[CoefficientStats]
    intercept: CoefficientStats
    r_squared: float
    n_samples: int

    def format_table(self) -> str:
        header = (
            f"{'Feature':<14s} {'Estimate':>10s}  {'Std. Error':>9s}  "
            f"{'t value':>9s}  Pr(>|t|)"
        )
        lines = [header] + [r.format_row() for r in self.rows]
        lines.append(self.intercept.format_row())
        lines.append(f"R^2 = {self.r_squared:.6f}   n = {self.n_samples}")
        return "\n".join(lines)


@dataclass
class FittedModel:
    """A fitted per-kernel time model: ``t = X @ coef + intercept``."""

    feature_names: List[str]
    coef: np.ndarray
    intercept: float
    summary: Optional[RegressionSummary] = None

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != len(self.feature_names):
            raise ModelError(
                f"expected {len(self.feature_names)} features, got {X.shape[1]}"
            )
        return X @ self.coef + self.intercept

    def predict_one(self, x: Sequence[float]) -> float:
        return float(self.predict(np.asarray(x, dtype=np.float64)[None, :])[0])

    def predict_batch(self, X: np.ndarray) -> np.ndarray:
        """Score ``N`` feature rows in one matrix–vector product.

        Equivalent to ``N`` :meth:`predict_one` calls (same BLAS GEMV up
        to summation order; differences sit at the last ulp) but
        amortizes the per-call overhead — the planner's phase-2 batch
        path.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ModelError(f"X must be 2-D, got shape {X.shape}")
        return self.predict(X)

    def precision_error_pct(self, X: np.ndarray, y: np.ndarray) -> float:
        """The paper's precision metric:
        ``mean(|actual - predicted| / actual) * 100``."""
        y = np.asarray(y, dtype=np.float64)
        if np.any(y <= 0):
            raise ModelError("actual times must be positive")
        pred = self.predict(X)
        return float(np.mean(np.abs(y - pred) / y) * 100.0)


class LinearRegression:
    """OLS fitter producing :class:`FittedModel` with full statistics."""

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        feature_names: Sequence[str],
        weighting: str = "relative",
    ) -> FittedModel:
        """Fit ``t = X @ coef + intercept``.

        ``weighting="relative"`` (default) weights each sample by
        ``1 / y`` so the fit minimizes *relative* squared error — the
        right objective for the paper's ``|actual-pred| / actual``
        precision metric over times spanning several decades.
        ``weighting="none"`` gives plain OLS.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2:
            raise ModelError(f"X must be 2-D, got shape {X.shape}")
        n, k = X.shape
        if len(feature_names) != k:
            raise ModelError(
                f"{len(feature_names)} names for {k} feature columns"
            )
        if y.shape != (n,):
            raise ModelError(f"y shape {y.shape} does not match X rows {n}")
        if n <= k + 1:
            raise ModelError(
                f"need more samples ({n}) than parameters ({k + 1}) to fit"
            )
        if weighting == "relative":
            if np.any(y <= 0):
                raise ModelError("relative weighting needs positive times")
            w = 1.0 / y
        elif weighting == "none":
            w = np.ones(n)
        else:
            raise ModelError(f"unknown weighting {weighting!r}")
        # Design matrix with intercept column last; weighted least squares
        # solved as OLS on the sqrt(w)-scaled system.
        A = np.hstack([X, np.ones((n, 1))])
        sw = np.sqrt(w)[:, None]
        beta, _, rank, _ = np.linalg.lstsq(A * sw, y * sw[:, 0], rcond=None)
        resid = (y - A @ beta) * sw[:, 0]
        dof = n - (k + 1)
        sigma2 = float(resid @ resid) / dof
        # Covariance of the estimator; pinv tolerates collinear features.
        cov = sigma2 * np.linalg.pinv((A * sw).T @ (A * sw))
        se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        with np.errstate(divide="ignore", invalid="ignore"):
            t_vals = np.where(se > 0, beta / se, np.inf)
        from scipy import stats

        p_vals = 2.0 * stats.t.sf(np.abs(t_vals), dof)

        plain_resid = y - A @ beta
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = (
            1.0 - float(plain_resid @ plain_resid) / ss_tot
            if ss_tot > 0
            else 1.0
        )

        rows = [
            CoefficientStats(
                name=str(feature_names[i]),
                estimate=float(beta[i]),
                std_error=float(se[i]),
                t_value=float(t_vals[i]),
                p_value=float(p_vals[i]),
            )
            for i in range(k)
        ]
        intercept = CoefficientStats(
            name="(Intercept)",
            estimate=float(beta[k]),
            std_error=float(se[k]),
            t_value=float(t_vals[k]),
            p_value=float(p_vals[k]),
        )
        summary = RegressionSummary(
            rows=rows, intercept=intercept, r_squared=r2, n_samples=n
        )
        return FittedModel(
            feature_names=list(feature_names),
            coef=beta[:k].copy(),
            intercept=float(beta[k]),
            summary=summary,
        )
