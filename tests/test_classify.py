import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from flaremon import classify
from flaremon.classify import (HIGH, LOW, predict, score, train_knn,
                               train_logistic, train_mlp, train_svm)
from flaremon.errors import NumericalError, TrainingDataError
from tests import classify_oracle
from tests.classify_oracle import (logistic_loss_grad, mlp_loss_grad,
                                   svm_loss_grad)

# separable by the line x0 = 0
SEP_X = np.array([[-2.0, 0.5], [-1.0, -0.5], [1.0, 0.3], [2.0, -0.2]])
SEP_Y = [HIGH, HIGH, LOW, LOW]

XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = [HIGH, HIGH, LOW, LOW]


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


class TestLogistic:
    def test_separable_perfect(self):
        m = train_logistic(SEP_X, SEP_Y)
        acc, _ = score(SEP_Y, predict(m, SEP_X))
        assert acc == 1.0

    def test_single_class_rejected(self):
        with pytest.raises(TrainingDataError):
            train_logistic(SEP_X, [HIGH] * 4)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 2))
        y01 = (rng.random(12) < 0.5).astype(float)
        w = rng.normal(size=2)
        b = 0.3
        _, gw, gb = logistic_loss_grad(w, b, X, y01)
        h = 1e-5
        for i in range(2):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (logistic_loss_grad(wp, b, X, y01)[0]
                  - logistic_loss_grad(wm, b, X, y01)[0]) / (2 * h)
            assert rel_err(gw[i], fd) < 1e-5
        fd_b = (logistic_loss_grad(w, b + h, X, y01)[0]
                - logistic_loss_grad(w, b - h, X, y01)[0]) / (2 * h)
        assert rel_err(gb, fd_b) < 1e-5

    def test_loss_non_increasing(self):
        X, y01 = SEP_X, np.array([1.0, 1.0, 0.0, 0.0])
        w = np.zeros(2)
        b = 0.0
        prev = np.inf
        for _ in range(200):
            loss, gw, gb = logistic_loss_grad(w, b, X, y01)
            assert loss <= prev + 1e-12
            prev = loss
            w -= 0.1 * gw
            b -= 0.1 * gb

    def test_deterministic(self):
        a = train_logistic(SEP_X, SEP_Y)
        b = train_logistic(SEP_X, SEP_Y)
        assert a == b


class TestSvm:
    def test_separable_margins(self):
        m = train_svm(SEP_X, SEP_Y)
        w = np.array(m.parameters["weights"])
        b = m.parameters["bias"]
        ypm = np.array([1.0, 1.0, -1.0, -1.0])
        assert (ypm * (SEP_X @ w + b) >= 0).all()
        acc, _ = score(SEP_Y, predict(m, SEP_X))
        assert acc == 1.0

    def test_huge_regularization_shrinks_weights(self, monkeypatch):
        monkeypatch.setattr(classify, "SVM_REGULARIZATION", 1e3)
        monkeypatch.setattr(classify, "EPOCHS", 2000)
        monkeypatch.setattr(classify, "LEARNING_RATE", 1e-4)
        m = train_svm(SEP_X, SEP_Y)
        assert np.abs(np.array(m.parameters["weights"])).max() < 1e-2

    def test_gradient_matches_finite_differences(self):
        # away from hinge kinks the subgradient is the gradient
        rng = np.random.default_rng(1)
        X = rng.normal(size=(10, 2))
        ypm = np.where(rng.random(10) < 0.5, 1.0, -1.0)
        w = rng.normal(size=2) * 0.1
        b = 0.05
        reg = 1e-2
        _, gw, gb = svm_loss_grad(w, b, X, ypm, reg)
        h = 1e-6
        for i in range(2):
            wp, wm = w.copy(), w.copy()
            wp[i] += h
            wm[i] -= h
            fd = (svm_loss_grad(wp, b, X, ypm, reg)[0]
                  - svm_loss_grad(wm, b, X, ypm, reg)[0]) / (2 * h)
            assert rel_err(gw[i], fd) < 1e-4


def knn(X, y, k):
    """A KNN model record as a model file may hold it, with any odd k."""
    return classify.ClassifierModel(
        "knn", {"samples": np.asarray(X, dtype=float).tolist(),
                "labels": list(y), "k": k}, parameter_count=3 * len(y))


class TestKnn:
    @pytest.mark.parametrize("rows, k", [(11, 1), (12, 3)])
    def test_k_from_row_count(self, rows, k):
        """k is 1 below KNN_MIN_ROWS = 12 training rows, 3 from there on."""
        X = np.arange(2.0 * rows).reshape(rows, 2)
        y = [HIGH, LOW] * (rows // 2) + [HIGH] * (rows % 2)
        assert train_knn(X, y).parameters["k"] == k

    def test_k1_exact_point(self):
        assert predict(knn(SEP_X, SEP_Y, 1), SEP_X[2]) == [LOW]

    def test_k3_majority(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [5.0, 5.0]])
        y = [HIGH, HIGH, LOW, LOW]
        assert predict(knn(X, y, 3), [0.05, 0.0]) == [HIGH]

    def test_k_equals_n_global_majority(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                      [4.0, 0.0]])
        y = [LOW, LOW, LOW, HIGH, HIGH]
        assert predict(knn(X, y, 5), [100.0, 100.0]) == [LOW]

    def test_distance_tie_lower_index(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = [HIGH, LOW]
        assert predict(knn(X, y, 1), [0.0, 0.0]) == [HIGH]


class TestMlp:
    def test_xor_learned(self, monkeypatch):
        monkeypatch.setattr(classify, "MLP_HIDDEN", 4)
        monkeypatch.setattr(classify, "EPOCHS", 5000)
        monkeypatch.setattr(classify, "LEARNING_RATE", 0.5)
        m = train_mlp(XOR_X, XOR_Y, seed=0)
        acc, _ = score(XOR_Y, predict(m, XOR_X))
        assert acc == 1.0

    def test_zero_epochs_is_initialization(self, monkeypatch):
        monkeypatch.setattr(classify, "EPOCHS", 0)
        a = train_mlp(XOR_X, XOR_Y, seed=3)
        b = train_mlp(XOR_X, XOR_Y, seed=3)
        assert a == b

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(8, 2))
        y01 = (rng.random(8) < 0.5).astype(float)
        params = classify._mlp_init(2, 4, seed=5)
        _, grads = mlp_loss_grad(params, X, y01)
        h = 1e-5
        for key in params:
            flat = params[key].ravel()
            gflat = np.asarray(grads[key]).ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp, _ = mlp_loss_grad(params, X, y01)
                flat[i] = orig - h
                lm, _ = mlp_loss_grad(params, X, y01)
                flat[i] = orig
                assert rel_err(gflat[i], (lp - lm) / (2 * h)) < 1e-4

    def test_seed_reproducible(self, monkeypatch):
        monkeypatch.setattr(classify, "EPOCHS", 50)
        a = train_mlp(XOR_X, XOR_Y, seed=11)
        b = train_mlp(XOR_X, XOR_Y, seed=11)
        assert a == b


class TestEvaluate:
    def test_perfect_model(self):
        m = train_logistic(SEP_X, SEP_Y)
        acc, conf = score(SEP_Y, predict(m, SEP_X))
        assert acc == 1.0
        assert conf[(HIGH, LOW)] == 0 and conf[(LOW, HIGH)] == 0

    def test_constant_model_on_balanced_data(self):
        m = classify.ClassifierModel(
            kind="logistic", parameters={"weights": [0.0, 0.0], "bias": 1.0},
            parameter_count=3)
        acc, _ = score(SEP_Y, predict(m, SEP_X))
        assert acc == 0.5

    def test_confusion_partitions_data(self):
        m = train_logistic(SEP_X, SEP_Y)
        _, conf = score(SEP_Y, predict(m, SEP_X))
        assert sum(conf.values()) == len(SEP_Y)

    def test_scaling_invariance_of_linear_decisions(self):
        m = train_svm(SEP_X, SEP_Y)
        scaled = classify.ClassifierModel(
            kind="svm",
            parameters={
                "weights": (np.array(m.parameters["weights"]) * 7.5).tolist(),
                "bias": m.parameters["bias"] * 7.5,
            },
            parameter_count=m.parameter_count)
        rng = np.random.default_rng(6)
        pts = rng.normal(size=(50, 2)) * 3
        assert predict(m, pts) == predict(scaled, pts)


@pytest.mark.parametrize("train", [train_logistic, train_svm, train_knn,
                                   train_mlp])
@pytest.mark.parametrize("labels, named", [([HIGH, "hgih"], "'hgih'"),
                                           ([HIGH, LOW, None, "x"], "None")])
def test_unknown_label_rejected(train, labels, named):
    """Two distinct labels are not both classes: a misspelt label must not
    train as low.  The first unknown label is named."""
    with pytest.raises(TrainingDataError,
                       match=f"label {named} is neither 'high' nor 'low'"):
        train(SEP_X[:len(labels)], labels)


# Bit identity with the trainers as they were (tests/classify_oracle.py).

TRAINERS = ("train_logistic", "train_svm", "train_mlp")


def bits(value):
    """`value` with every float replaced by its float.hex."""
    if isinstance(value, dict):
        return {k: bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def outcome(train, X, labels):
    """A model's kind, parameter count and parameter bits, or the type and
    text of the error it raised."""
    try:
        m = train(X, labels)
    except NumericalError as exc:
        return type(exc), str(exc)
    return m.kind, m.parameter_count, bits(m.parameters)


def same_as_oracle(X, labels):
    for name in TRAINERS:
        got = outcome(getattr(classify, name), X, labels)
        assert got == outcome(getattr(classify_oracle, name), X, labels), name


@st.composite
def training_sets(draw):
    """(X, labels): 2-300 samples of two features at scales from 1e-3 to
    1e3 or 1e300, with imbalanced classes, duplicate rows and, sometimes,
    one inf or NaN entry."""
    n = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = draw(st.one_of(
        st.tuples(*[st.floats(-3, 3).map(lambda e: 10.0 ** e)] * 2),
        st.just((1e300, 1e300))))
    X = rng.normal(size=(n, 2)) * scales
    high = rng.random(n) < draw(st.sampled_from([0.02, 0.2, 0.5, 0.9]))
    high[rng.choice(n, 2, replace=False)] = [True, False]
    duplicates = draw(st.integers(0, n // 2))
    if duplicates:
        X[rng.choice(n, duplicates)] = X[rng.choice(n, duplicates)]
    if draw(st.booleans()) and draw(st.booleans()):
        X.flat[rng.integers(X.size)] = draw(st.sampled_from(
            [np.inf, -np.inf, np.nan]))
    return X, [HIGH if h else LOW for h in high]


@settings(max_examples=100, deadline=None)
@given(data=training_sets(), epochs=st.integers(0, 300))
def test_trainers_match_oracle(data, epochs):
    with pytest.MonkeyPatch.context() as m:
        m.setattr(classify, "EPOCHS", epochs)
        with np.errstate(all="ignore"):
            same_as_oracle(*data)


@pytest.mark.parametrize("X, labels", [
    (SEP_X, SEP_Y), (XOR_X, XOR_Y),
    (np.random.default_rng(8).normal(size=(121, 2)) * [1.5, 0.4],
     [HIGH if v else LOW for v in np.random.default_rng(9).random(121) < .4])],
    ids=["separable", "xor", "121x2"])
def test_full_fits_match_oracle(X, labels):
    same_as_oracle(X, labels)


def test_divergence_text_matches_oracle():
    X = np.random.default_rng(3).normal(size=(20, 2))
    y = [HIGH, LOW] * 10
    with np.errstate(all="ignore"):
        assert outcome(train_svm, X * 1e300, y) == (NumericalError,
                                                    "loss became inf")
        same_as_oracle(X * 1e300, y)
        for bad in (np.inf, np.nan):
            X[4, 1] = bad
            for name in TRAINERS:
                assert outcome(getattr(classify, name), X, y) == (
                    NumericalError, "loss became nan")
            same_as_oracle(X, y)


@settings(max_examples=300, deadline=None)
@given(arrays(np.float64, st.integers(0, 300),
              elements=st.floats(allow_nan=True, allow_infinity=True)))
def test_sigmoid_matches_oracle(z):
    with np.errstate(all="ignore"):
        assert (classify._sigmoid(z).tobytes()
                == classify_oracle.sigmoid(z).tobytes())
        assert (classify._sigmoid(z[:, None]).tobytes()
                == classify_oracle.sigmoid(z).tobytes())


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       scale=st.floats(-3, 3).map(lambda e: 10.0 ** e))
def test_mlp_forward_matches_oracle(seed, scale):
    """Prediction goes through the current sigmoid, the oracle's through
    its own."""
    rng = np.random.default_rng(seed)
    weights = classify._mlp_init(2, classify.MLP_HIDDEN, seed)
    weights = {k: v * scale for k, v in weights.items()}
    X = rng.normal(size=(50, 2)) * scale
    for a, b in zip(classify.mlp_forward(weights, X),
                    classify_oracle.mlp_forward(weights, X)):
        assert a.tobytes() == b.tobytes()
    model = classify.ClassifierModel(
        "mlp", {k: v.tolist() for k, v in weights.items()}, 33)
    assert predict(model, X) == classify_oracle.predict(model, X)
