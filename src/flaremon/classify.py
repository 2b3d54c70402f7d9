"""Four binary classifiers on (PC1, PC2): logistic, linear SVM, KNN, MLP.

Labels are the strings "high" / "low"; internally high maps to 1 (or +1
for the SVM).  All trainers are deterministic given data order,
hyperparameters, and seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import DivergenceError, InvalidK, TrainingDataError

HIGH = "high"
LOW = "low"
KINDS = ("logistic", "svm", "knn", "mlp")  # ties in selection go to the first
EPOCHS = 2000  # full-batch gradient steps of the logistic, SVM and MLP fits
LEARNING_RATE = 0.1
SVM_REGULARIZATION = 1e-2  # weight of the SVM's L2 penalty
MLP_HIDDEN = 8  # tanh units of the MLP's one hidden layer


@dataclass(frozen=True)
class ClassifierModel:
    kind: str  # one of KINDS
    parameters: dict
    parameter_count: int


def _check_data(X, y):
    X = np.asarray(X, dtype=float)
    y = list(y)
    if X.shape[0] != len(y) or X.shape[0] < 2:
        raise TrainingDataError("need at least 2 samples")
    if len(set(y)) < 2:
        raise TrainingDataError("training data must contain both classes")
    return X, np.array([1.0 if lbl == HIGH else 0.0 for lbl in y])


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_grad(w, b, X, y01):
    """Mean binary cross-entropy and its gradient."""
    p = _sigmoid(X @ w + b)
    eps = 1e-12
    loss = -np.mean(y01 * np.log(p + eps) + (1 - y01) * np.log(1 - p + eps))
    diff = p - y01
    return loss, X.T @ diff / len(y01), float(diff.mean())


def _train_linear(kind, loss_grad, n_features):
    """Full-batch gradient descent on (w, b) from zero; loss_grad(w, b)
    returns (loss, grad_w, grad_b)."""
    w = np.zeros(n_features)
    b = 0.0
    for _ in range(EPOCHS):
        loss, gw, gb = loss_grad(w, b)
        if not np.isfinite(loss):
            raise DivergenceError(f"loss became {loss}")
        w -= LEARNING_RATE * gw
        b -= LEARNING_RATE * gb
    return ClassifierModel(kind=kind,
                           parameters={"weights": w.tolist(), "bias": b},
                           parameter_count=w.size + 1)


def train_logistic(data, labels) -> ClassifierModel:
    X, y01 = _check_data(data, labels)
    return _train_linear(
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


def train_svm(data, labels) -> ClassifierModel:
    X, y01 = _check_data(data, labels)
    ypm = 2.0 * y01 - 1.0
    return _train_linear(
        "svm", lambda w, b: svm_loss_grad(w, b, X, ypm, SVM_REGULARIZATION),
        X.shape[1])


def train_knn(data, labels, k: int = 3) -> ClassifierModel:
    X, _ = _check_data(data, labels)
    if k % 2 == 0:
        raise InvalidK("k must be odd")
    if k > X.shape[0]:
        raise InvalidK(f"k={k} exceeds sample count {X.shape[0]}")
    return ClassifierModel(
        kind="knn",
        parameters={"samples": X.tolist(), "labels": list(labels), "k": k},
        parameter_count=X.shape[0] * 3,  # 2 coordinates + 1 label per sample
    )


def _mlp_init(n_in, n_hidden, seed):
    rng = np.random.default_rng(seed)
    return {
        "W1": rng.uniform(-0.5, 0.5, size=(n_in, n_hidden)),
        "b1": rng.uniform(-0.5, 0.5, size=n_hidden),
        "W2": rng.uniform(-0.5, 0.5, size=(n_hidden, 1)),
        "b2": rng.uniform(-0.5, 0.5, size=1),
    }


def mlp_forward(weights, X):
    h = np.tanh(X @ weights["W1"] + weights["b1"])
    p = _sigmoid((h @ weights["W2"] + weights["b2"]).ravel())
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


def train_mlp(data, labels, seed: int = 0) -> ClassifierModel:
    X, y01 = _check_data(data, labels)
    weights = _mlp_init(X.shape[1], MLP_HIDDEN, seed)
    for _ in range(EPOCHS):
        loss, grads = mlp_loss_grad(weights, X, y01)
        if not np.isfinite(loss):
            raise DivergenceError(f"loss became {loss}")
        for key in weights:
            weights[key] = weights[key] - LEARNING_RATE * grads[key]
    count = sum(v.size for v in weights.values())
    return ClassifierModel(
        kind="mlp",
        parameters={k: v.tolist() for k, v in weights.items()},
        parameter_count=count,
    )


def predict(model: ClassifierModel, X) -> List[str]:
    """Label of each (PC1, PC2) row; the parameters are trusted, as the
    trainers and `formats.model_from_json` check them."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if model.kind in ("logistic", "svm"):
        w = np.asarray(model.parameters["weights"])
        b = model.parameters["bias"]
        score = X @ w + b
        return [HIGH if s >= 0 else LOW for s in score]
    if model.kind == "knn":
        p = model.parameters
        d = np.linalg.norm(np.asarray(p["samples"], dtype=float)
                           - X[:, None, :], axis=2)
        # stable sort: distance ties resolve to the lower sample index
        nearest = np.argsort(d, axis=1, kind="stable")[:, :p["k"]]
        votes = (np.asarray(p["labels"]) == HIGH)[nearest].sum(axis=1)
        return [HIGH if v * 2 > p["k"] else LOW for v in votes]
    if model.kind == "mlp":
        weights = {k: np.asarray(v) for k, v in model.parameters.items()}
        _, prob = mlp_forward(weights, X)
        return [HIGH if v >= 0.5 else LOW for v in prob]
    raise ValueError(f"unknown classifier kind {model.kind!r}")


def score(labels, predicted):
    """Accuracy plus 2x2 confusion counts keyed (true, predicted)."""
    labels = list(labels)
    if not labels:
        raise TrainingDataError("evaluation data is empty")
    confusion = {(t, p): 0 for t in (HIGH, LOW) for p in (HIGH, LOW)}
    for t, p in zip(labels, predicted):
        confusion[(t, p)] += 1
    correct = confusion[(HIGH, HIGH)] + confusion[(LOW, LOW)]
    return correct / len(labels), confusion
