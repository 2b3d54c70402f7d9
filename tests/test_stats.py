import numpy as np
import pytest

from flaremon.errors import TrainingDataError
from flaremon.stats import (covariance, eigen_symmetric, pca_fit, pca_project,
                            standardize_apply, standardize_fit)


class TestStandardize:
    def test_hand_column(self):
        p = standardize_fit(np.array([[1.0], [2.0], [3.0]]))
        assert p.means[0] == pytest.approx(2.0)
        assert p.stds[0] == pytest.approx(1.0)  # n-1 divisor

    def test_fixed_point(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(200, 3))
        p = standardize_fit(data)
        z = np.array([standardize_apply(x, p) for x in data])
        p2 = standardize_fit(z)
        assert np.allclose(p2.means, 0.0, atol=1e-12)
        assert np.allclose(p2.stds, 1.0, atol=1e-12)

    def test_constant_column_named(self):
        data = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        with pytest.raises(TrainingDataError,
                           match="^feature column 1 is constant$"):
            standardize_fit(data)

    def test_apply_at_mean_and_sigma(self):
        p = standardize_fit(np.array([[1.0, 0, 0], [3.0, 2, 4]]))
        assert np.allclose(standardize_apply(p.means, p), 0.0)
        assert np.allclose(standardize_apply(p.means + p.stds, p), 1.0)

    def test_apply_hand_case(self):
        import flaremon.stats as stats
        p = stats.StandardizationParams(means=np.array([2.0, 0, 0]),
                                        stds=np.array([1.0, 1, 1]))
        assert np.allclose(standardize_apply([3.0, 0, 0], p), [1, 0, 0])


class TestCovariance:
    def test_identical_columns_rank_one(self):
        data = np.array([[1.0, 1.0], [2.0, 2.0], [4.0, 4.0]])
        cov = covariance(data)
        assert np.allclose(cov, cov[0, 0])

    def test_hand_two_rows(self):
        cov = covariance(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(cov, [[2.0, 2.0], [2.0, 2.0]])

    def test_standardized_diagonal_one(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(100, 3)) * [1, 5, 20]
        p = standardize_fit(data)
        z = np.array([standardize_apply(x, p) for x in data])
        assert np.allclose(np.diag(covariance(z)), 1.0, atol=1e-9)


class TestEigenSymmetric:
    def test_diagonal_input(self):
        vals, vecs = eigen_symmetric(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(vals, [3, 2, 1])
        assert np.allclose(vecs, np.eye(3))

    def test_two_by_two_hand_case(self):
        vals, vecs = eigen_symmetric(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(vals, [3.0, 1.0])
        assert np.allclose(np.abs(vecs[0]), [1, 1] / np.sqrt(2))
        assert np.allclose(np.abs(vecs[1]), [1, 1] / np.sqrt(2))
        # sign convention: largest-magnitude entry positive
        assert vecs[0].max() > 0 and vecs[1].max() > 0

    def test_residual_and_trace_random(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            A = rng.normal(size=(3, 3))
            M = (A + A.T) / 2
            vals, vecs = eigen_symmetric(M)
            for lam, vec in zip(vals, vecs):
                assert np.max(np.abs(M @ vec - lam * vec)) < 1e-9
            assert abs(vals.sum() - np.trace(M)) < 1e-9
            assert np.allclose(vecs @ vecs.T, np.eye(3), atol=1e-9)

    def test_asymmetric_rejected(self):
        with pytest.raises(TrainingDataError,
                           match="^matrix is not symmetric$"):
            eigen_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestPca:
    def test_line_data_explains_everything(self):
        t = np.linspace(-1, 1, 30)
        data = np.outer(t, [1.0, -2.0, 0.5])
        m = pca_fit(data)
        assert m.explained_variance_fraction[0] == pytest.approx(1.0,
                                                                 abs=1e-9)

    def test_projected_training_data_centered(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(50, 3))
        data -= data.mean(axis=0)
        m = pca_fit(data)
        pcs = np.array([pca_project(x, m) for x in data])
        assert np.allclose(pcs.mean(axis=0), 0.0, atol=1e-9)

    def test_components_orthonormal_and_ordered(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(40, 3)) * [3, 1, 0.2]
        m = pca_fit(data)
        assert np.allclose(m.components @ m.components.T, np.eye(2),
                           atol=1e-9)
        pcs = np.array([pca_project(x, m) for x in data])
        assert pcs[:, 0].var() >= pcs[:, 1].var()

    def test_projection_linear(self):
        rng = np.random.default_rng(5)
        m = pca_fit(rng.normal(size=(20, 3)))
        x, y = rng.normal(size=3), rng.normal(size=3)
        a, b = 2.5, -1.25
        assert np.allclose(pca_project(a * x + b * y, m),
                           a * pca_project(x, m) + b * pca_project(y, m),
                           atol=1e-9)

    def test_needs_three_rows(self):
        with pytest.raises(TrainingDataError,
                           match="^need at least 3 rows to fit$"):
            pca_fit(np.zeros((2, 3)))


def test_table2_shape_reproduced_up_to_sign():
    # The published nine-row reduction is only a format reference (the full
    # table is truncated), but on the nine visible rows our pipeline lands
    # within a few hundredths of the printed PCs, up to the sign convention.
    from tests.conftest import TRAINING_ROWS
    p = standardize_fit(TRAINING_ROWS)
    z = np.array([standardize_apply(x, p) for x in TRAINING_ROWS])
    m = pca_fit(z)
    pcs = np.array([pca_project(row, m) for row in z])
    published_pc1 = np.array([-1.89, -1.43, -0.11, -0.07, -2.10,
                              0.10, 0.74, 1.89, 2.88])
    corr = np.corrcoef(pcs[:, 0], published_pc1)[0, 1]
    assert abs(corr) > 0.999
