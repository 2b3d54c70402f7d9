"""The decision stage one record at a time: standardize, project and
classify a single feature vector, with a per-sample KNN vote.  This is how
`pipeline.classify_features` worked before it took a (k, 3) array; the
batched path must match it bit for bit."""

from __future__ import annotations

import numpy as np

from flaremon.classify import HIGH, LOW, mlp_forward
from flaremon.errors import InvalidK


def pca_project(x, m):
    return m.components @ np.asarray(x, dtype=float)


def knn_predict(stored_X, stored_labels, k: int, x) -> str:
    stored_X = np.asarray(stored_X, dtype=float)
    if k % 2 == 0:
        raise InvalidK("k must be odd")
    if k > stored_X.shape[0]:
        raise InvalidK(f"k={k} exceeds sample count {stored_X.shape[0]}")
    d = np.linalg.norm(stored_X - np.asarray(x, dtype=float), axis=1)
    # stable sort: distance ties resolve to the lower sample index
    nearest = np.argsort(d, kind="stable")[:k]
    votes = sum(1 for i in nearest if stored_labels[i] == HIGH)
    return HIGH if votes * 2 > k else LOW


def predict(model, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if model.kind in ("logistic", "svm"):
        w = np.asarray(model.parameters["weights"])
        b = model.parameters["bias"]
        score = X @ w + b
        return [HIGH if s >= 0 else LOW for s in score]
    if model.kind == "knn":
        p = model.parameters
        return [knn_predict(p["samples"], p["labels"], p["k"], x) for x in X]
    if model.kind == "mlp":
        params = {k: np.asarray(v) for k, v in model.parameters.items()}
        _, prob = mlp_forward(params, X)
        return [HIGH if v >= 0.5 else LOW for v in prob]
    raise ValueError(f"unknown classifier kind {model.kind!r}")


def classify_features(model, f):
    """((PC1, PC2), label) of one FeatureVector."""
    std = model.standardization
    z = (f.as_array() - std.means) / std.stds
    pc = pca_project(z, model.pca)
    label = predict(model.classifier, pc.reshape(1, -1))[0]
    return (float(pc[0]), float(pc[1])), label
