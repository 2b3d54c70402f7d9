"""The classifier layer as it was, kept as a reference for the current one.

- The trainers: full-batch gradient descent that computes the mean loss
  and every gradient through the `*_loss_grad` functions each epoch, with
  the masked two-exp sigmoid.  `flaremon.classify` now makes fewer numpy
  calls per epoch; its models must match these bit for bit, and it must
  raise the same `NumericalError` text on the same inputs.  The
  `*_loss_grad` functions also serve the finite-difference gradient
  checks.
- The decision stage one record at a time: standardize, project and
  classify a single feature vector, with a per-sample KNN vote.  This is
  how `pipeline.classify_features` worked before it took a (k, 3) array;
  the batched path must match it bit for bit.

The trainers read `EPOCHS`, `LEARNING_RATE`, `SVM_REGULARIZATION` and
`MLP_HIDDEN` from `flaremon.classify` when called, so a test that patches
them patches both sides.  pytest does not collect this file.
"""

from __future__ import annotations

import numpy as np

from flaremon import classify
from flaremon.classify import HIGH, LOW, ClassifierModel, _mlp_init
from flaremon.errors import NumericalError, TrainingDataError


def check_data(X, y):
    X = np.asarray(X, dtype=float)
    y = list(y)
    if X.shape[0] != len(y) or X.shape[0] < 2:
        raise TrainingDataError("need at least 2 samples")
    if len(set(y)) < 2:
        raise TrainingDataError("training data must contain both classes")
    return X, np.array([1.0 if lbl == HIGH else 0.0 for lbl in y])


def sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_grad(w, b, X, y01):
    """Mean binary cross-entropy and its gradient."""
    p = sigmoid(X @ w + b)
    eps = 1e-12
    loss = -np.mean(y01 * np.log(p + eps) + (1 - y01) * np.log(1 - p + eps))
    diff = p - y01
    return loss, X.T @ diff / len(y01), float(diff.mean())


def train_linear(kind, loss_grad, n_features):
    """Full-batch gradient descent on (w, b) from zero; loss_grad(w, b)
    returns (loss, grad_w, grad_b)."""
    w = np.zeros(n_features)
    b = 0.0
    for _ in range(classify.EPOCHS):
        loss, gw, gb = loss_grad(w, b)
        if not np.isfinite(loss):
            raise NumericalError(f"loss became {loss}")
        w -= classify.LEARNING_RATE * gw
        b -= classify.LEARNING_RATE * gb
    return ClassifierModel(kind=kind,
                           parameters={"weights": w.tolist(), "bias": b},
                           parameter_count=w.size + 1)


def train_logistic(data, labels):
    X, y01 = check_data(data, labels)
    return train_linear(
        "logistic", lambda w, b: logistic_loss_grad(w, b, X, y01), X.shape[1])


def svm_loss_grad(w, b, X, ypm, reg):
    """L2-regularized mean hinge loss and a subgradient."""
    margins = ypm * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    loss = 0.5 * reg * float(w @ w) + float(hinge.mean())
    active = (margins < 1.0).astype(float)
    gw = reg * w - X.T @ (ypm * active) / len(ypm)
    gb = -float((ypm * active).mean())
    return loss, gw, gb


def train_svm(data, labels):
    X, y01 = check_data(data, labels)
    ypm = 2.0 * y01 - 1.0
    return train_linear(
        "svm",
        lambda w, b: svm_loss_grad(w, b, X, ypm, classify.SVM_REGULARIZATION),
        X.shape[1])


def mlp_forward(weights, X):
    h = np.tanh(X @ weights["W1"] + weights["b1"])
    p = sigmoid((h @ weights["W2"] + weights["b2"]).ravel())
    return h, p


def mlp_loss_grad(weights, X, y01):
    """Mean cross-entropy and full-batch backprop gradients."""
    h, p = mlp_forward(weights, X)
    eps = 1e-12
    loss = -np.mean(y01 * np.log(p + eps) + (1 - y01) * np.log(1 - p + eps))
    n = len(y01)
    dz2 = (p - y01)[:, None] / n
    grads = {
        "W2": h.T @ dz2,
        "b2": dz2.sum(axis=0),
    }
    dh = dz2 @ weights["W2"].T
    dz1 = dh * (1.0 - h * h)
    grads["W1"] = X.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return loss, grads


def train_mlp(data, labels, seed=0):
    X, y01 = check_data(data, labels)
    weights = _mlp_init(X.shape[1], classify.MLP_HIDDEN, seed)
    for _ in range(classify.EPOCHS):
        loss, grads = mlp_loss_grad(weights, X, y01)
        if not np.isfinite(loss):
            raise NumericalError(f"loss became {loss}")
        for key in weights:
            weights[key] = weights[key] - classify.LEARNING_RATE * grads[key]
    count = sum(v.size for v in weights.values())
    return ClassifierModel(
        kind="mlp",
        parameters={k: v.tolist() for k, v in weights.items()},
        parameter_count=count,
    )


def pca_project(x, m):
    return m.components @ np.asarray(x, dtype=float)


def knn_predict(stored_X, stored_labels, k: int, x) -> str:
    stored_X = np.asarray(stored_X, dtype=float)
    if k % 2 == 0:
        raise TrainingDataError("k must be odd")
    if k > stored_X.shape[0]:
        raise TrainingDataError(f"k={k} exceeds sample count {stored_X.shape[0]}")
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
    z = (np.array(f) - std.means) / std.stds
    pc = pca_project(z, model.pca)
    label = predict(model.classifier, pc.reshape(1, -1))[0]
    return (float(pc[0]), float(pc[1])), label
