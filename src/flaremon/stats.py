"""Standardization, covariance, Jacobi eigendecomposition, 2-component PCA."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import TrainingDataError

_OFF_TOL = 1e-12  # Jacobi stops when every off-diagonal entry is below it


class StandardizationParams(NamedTuple):
    means: np.ndarray
    stds: np.ndarray


class PcaModel(NamedTuple):
    components: np.ndarray  # (2, d) rows, descending eigenvalue
    eigenvalues: np.ndarray  # (2,)
    explained_variance_fraction: np.ndarray  # (2,), eigenvalue / trace


def standardize_fit(data) -> StandardizationParams:
    """Column means and sample standard deviations (n-1 divisor)."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise TrainingDataError("need a 2-D matrix with at least 2 rows")
    means = data.mean(axis=0)
    stds = data.std(axis=0, ddof=1)
    for col, s in enumerate(stds):
        if s == 0.0:
            raise TrainingDataError(f"feature column {col} is constant")
    return StandardizationParams(means=means, stds=stds)


def standardize_apply(x, p: StandardizationParams):
    return (np.asarray(x, dtype=float) - p.means) / p.stds


def covariance(data):
    """Sample covariance matrix, n-1 divisor, symmetric by construction."""
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise TrainingDataError("need a 2-D matrix with at least 2 rows")
    centered = data - data.mean(axis=0)
    cov = centered.T @ centered / (data.shape[0] - 1)
    return (cov + cov.T) / 2.0


def eigen_symmetric(M):
    """Eigenpairs of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors): values sorted descending,
    eigenvectors as matching rows, sign fixed so each row's
    largest-magnitude entry is positive.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise TrainingDataError("matrix must be square")
    if np.max(np.abs(M - M.T)) > 1e-9:
        raise TrainingDataError("matrix is not symmetric")
    n = M.shape[0]
    A = (M + M.T) / 2.0
    V = np.eye(n)

    for _ in range(100):  # sweeps
        off = np.max(np.abs(A - np.diag(np.diag(A)))) if n > 1 else 0.0
        if off < _OFF_TOL:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < _OFF_TOL:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(tau) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                if tau == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
                A = (A + A.T) / 2.0

    values = np.diag(A).copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = V[:, order].T.copy()
    for i in range(n):
        j = int(np.argmax(np.abs(vectors[i])))
        if vectors[i, j] < 0:
            vectors[i] = -vectors[i]
    return values, vectors


def pca_fit(data) -> PcaModel:
    """Top-2 principal directions of (already standardized) data."""
    data = np.asarray(data, dtype=float)
    if data.shape[0] < 3:
        raise TrainingDataError("need at least 3 rows to fit")
    cov = covariance(data)
    values, vectors = eigen_symmetric(cov)
    trace = float(values.sum())
    values = np.clip(values, 0.0, None)
    explained = values[:2] / trace if trace > 0 else np.zeros(2)
    return PcaModel(
        components=vectors[:2].copy(),
        eigenvalues=values[:2].copy(),
        explained_variance_fraction=explained,
    )


def pca_project(x, m: PcaModel):
    """(PC1, PC2) of a (d,) feature vector, or (k, 2) of a (k, d) array;
    a row projects to the same bits alone or in a batch (X @ components.T
    would not)."""
    return (m.components @ np.asarray(x, dtype=float)[..., None])[..., 0]
