"""Four binary classifiers on (PC1, PC2): logistic, linear SVM, KNN, MLP.

Labels are the strings "high" / "low"; internally high maps to 1 (or +1
for the SVM).  All trainers are deterministic given data order,
hyperparameters, and seed.
"""

from __future__ import annotations

import math
from typing import List, NamedTuple

import numpy as np

from .errors import NumericalError, TrainingDataError

HIGH = "high"
LOW = "low"
KINDS = ("logistic", "svm", "knn", "mlp")  # ties in selection go to the first
EPOCHS = 2000  # full-batch gradient steps of the logistic, SVM and MLP fits
LEARNING_RATE = 0.1
SVM_REGULARIZATION = 1e-2  # weight of the SVM's L2 penalty
MLP_HIDDEN = 8  # tanh units of the MLP's one hidden layer
KNN_MIN_ROWS = 12  # training rows from which KNN votes with k = 3, not 1


class ClassifierModel(NamedTuple):
    kind: str  # one of KINDS
    parameters: dict
    parameter_count: int


def _check_data(X, y):
    X = np.asarray(X, dtype=float)
    y = list(y)
    if X.shape[0] != len(y) or X.shape[0] < 2:
        raise TrainingDataError("need at least 2 samples")
    for lbl in y:
        if lbl not in (HIGH, LOW):
            raise TrainingDataError(
                f"label {lbl!r} is neither {HIGH!r} nor {LOW!r}")
    if len(set(y)) < 2:
        raise TrainingDataError("training data must contain both classes")
    return X, np.array([1.0 if lbl == HIGH else 0.0 for lbl in y])


def _sigmoid(z):
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so
    that no exp overflows; NaN stays the NaN it was."""
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


def _train_linear(kind, X, step):
    """Full-batch gradient descent on (w, b) from zero.  `step(z, w)` takes
    the scores X @ w + b and returns (X.T @ g / n, mean of g) for the
    per-sample loss gradient g; it raises NumericalError itself."""
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(EPOCHS):
        gw, gb = step(X @ w + b, w)
        w -= LEARNING_RATE * gw
        b -= LEARNING_RATE * gb
    return ClassifierModel(kind=kind,
                           parameters={"weights": w.tolist(), "bias": b},
                           parameter_count=w.size + 1)


def train_logistic(data, labels) -> ClassifierModel:
    """Mean binary cross-entropy.  Its loss is NaN exactly when the mean
    gradient of the bias is, so that is what is checked."""
    X, y01 = _check_data(data, labels)
    XT, n = X.T, len(y01)

    def step(z, w):
        diff = _sigmoid(z) - y01
        gb = np.add.reduce(diff) / n
        if math.isnan(gb):
            raise NumericalError("loss became nan")
        return XT @ diff / n, float(gb)

    return _train_linear("logistic", X, step)


def train_svm(data, labels) -> ClassifierModel:
    """L2-regularized mean hinge loss, with a subgradient.  The loss is
    checked itself: it can overflow while the gradients stay finite."""
    X, y01 = _check_data(data, labels)
    XT, n = X.T, len(y01)
    ypm = 2.0 * y01 - 1.0
    reg = SVM_REGULARIZATION

    def step(z, w):
        margins = ypm * z
        loss = (0.5 * reg * float(w @ w)
                + float(np.add.reduce(np.maximum(0.0, 1.0 - margins)) / n))
        if not math.isfinite(loss):
            raise NumericalError(f"loss became {loss}")
        g = ypm * (margins < 1.0)
        return reg * w - XT @ g / n, -float(np.add.reduce(g) / n)

    return _train_linear("svm", X, step)


def train_knn(data, labels) -> ClassifierModel:
    """Stores the samples with k = 1 below KNN_MIN_ROWS rows, where a
    3-neighbourhood could out-vote an isolated but correct sample, else 3."""
    X, _ = _check_data(data, labels)
    k = 3 if X.shape[0] >= KNN_MIN_ROWS else 1
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


def train_mlp(data, labels, seed: int = 0) -> ClassifierModel:
    """Mean cross-entropy through one tanh layer, by full-batch backprop.
    As for the logistic fit, the bias gradient of the output is checked
    in place of the loss."""
    X, y01 = _check_data(data, labels)
    XT, n, y = X.T, len(y01), y01[:, None]
    init = _mlp_init(X.shape[1], MLP_HIDDEN, seed)
    # the parameters and their gradients as views of one flat array each,
    # so that one subtraction updates them all
    theta = np.concatenate([v.ravel() for v in init.values()])
    grad = np.empty_like(theta)
    ends = np.cumsum([0] + [v.size for v in init.values()]).tolist()

    def split(flat):
        return [flat[a:b].reshape(v.shape)
                for a, b, v in zip(ends, ends[1:], init.values())]

    (W1, b1, W2, b2), (gW1, gb1, gW2, gb2) = split(theta), split(grad)
    for _ in range(EPOCHS):
        h = np.tanh(X @ W1 + b1)
        dz2 = (_sigmoid(h @ W2 + b2) - y) / n
        np.add.reduce(dz2, axis=0, out=gb2)
        if math.isnan(gb2[0]):
            raise NumericalError("loss became nan")
        np.matmul(h.T, dz2, out=gW2)
        dz1 = dz2 * W2.T * (1.0 - h * h)
        np.matmul(XT, dz1, out=gW1)
        np.add.reduce(dz1, axis=0, out=gb1)
        theta -= LEARNING_RATE * grad
    return ClassifierModel(
        kind="mlp",
        parameters={k: v.tolist() for k, v in zip(init, split(theta))},
        parameter_count=theta.size,
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
