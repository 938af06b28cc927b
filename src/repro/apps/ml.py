"""From-scratch AdaBoost over decision stumps (NumPy).

Stands in for the AdaBoost/decision-tree ensemble of §5.1 (no scikit-learn
offline).  Binary classification with labels in {-1, +1}; feature
importances are the normalised sum of each stump's weighted error reduction
(the ensemble's voting weight alpha), matching Table 5.2's "weighted error
reduction in an AdaBoost ensemble of trees".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class DecisionStump:
    """Threshold rule on one feature: predict +1 iff polarity*(x - thr) > 0."""

    feature: int = 0
    threshold: float = 0.0
    polarity: float = 1.0

    def predict(self, X: np.ndarray) -> np.ndarray:
        raw = self.polarity * (X[:, self.feature] - self.threshold)
        return np.where(raw > 0, 1.0, -1.0)

    @staticmethod
    def fit_weighted(
        X: np.ndarray, y: np.ndarray, weights: np.ndarray
    ) -> tuple["DecisionStump", float]:
        """Exhaustive best stump under sample weights; returns (stump, err)."""
        n_samples, n_features = X.shape
        best = DecisionStump()
        best_err = np.inf
        for feature in range(n_features):
            values = X[:, feature]
            # candidate thresholds: midpoints of sorted unique values
            uniq = np.unique(values)
            if len(uniq) == 1:
                candidates = uniq
            else:
                candidates = (uniq[:-1] + uniq[1:]) / 2.0
            for threshold in candidates:
                pred = np.where(values > threshold, 1.0, -1.0)
                err = float(np.sum(weights[pred != y]))
                for polarity, e in ((1.0, err), (-1.0, 1.0 - err)):
                    if e < best_err:
                        best_err = e
                        best = DecisionStump(feature, float(threshold), polarity)
        return best, max(best_err, 1e-12)


@dataclass
class AdaBoost:
    """SAMME-style AdaBoost for binary labels in {-1, +1}."""

    n_estimators: int = 40
    stumps: list = field(default_factory=list)
    alphas: list = field(default_factory=list)
    n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "AdaBoost":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = len(y)
        if n == 0:
            raise ValueError("empty training set")
        self.n_features_ = X.shape[1]
        weights = np.full(n, 1.0 / n)
        self.stumps = []
        self.alphas = []
        for _ in range(self.n_estimators):
            stump, err = DecisionStump.fit_weighted(X, y, weights)
            err = min(max(err, 1e-12), 1 - 1e-12)
            alpha = 0.5 * np.log((1.0 - err) / err)
            if alpha <= 0:
                break
            pred = stump.predict(X)
            weights = weights * np.exp(-alpha * y * pred)
            total = weights.sum()
            if total <= 0:  # pragma: no cover - numeric guard
                break
            weights /= total
            self.stumps.append(stump)
            self.alphas.append(float(alpha))
            if err < 1e-9:
                break
        return self

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        scores = np.zeros(len(X))
        for stump, alpha in zip(self.stumps, self.alphas):
            scores += alpha * stump.predict(X)
        return scores

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.where(self.decision_function(X) >= 0, 1.0, -1.0)

    def feature_importances(self) -> np.ndarray:
        """Normalised weighted error reduction per feature (Table 5.2)."""
        imp = np.zeros(self.n_features_)
        for stump, alpha in zip(self.stumps, self.alphas):
            imp[stump.feature] += alpha
        total = imp.sum()
        return imp / total if total > 0 else imp


def classification_scores(
    y_true: np.ndarray, y_pred: np.ndarray
) -> dict[str, float]:
    """accuracy / precision / recall / F1 for the positive class (+1)."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    tp = float(np.sum((y_pred == 1) & (y_true == 1)))
    fp = float(np.sum((y_pred == 1) & (y_true == -1)))
    fn = float(np.sum((y_pred == -1) & (y_true == 1)))
    tn = float(np.sum((y_pred == -1) & (y_true == -1)))
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {
        "accuracy": accuracy,
        "precision": precision,
        "recall": recall,
        "f1": f1,
    }


def train_test_split(
    X: np.ndarray, y: np.ndarray, test_fraction: float = 0.3, seed: int = 0
):
    """Deterministic shuffled split."""
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(y))
    cut = max(1, int(len(y) * (1 - test_fraction)))
    train, test = idx[:cut], idx[cut:]
    if len(test) == 0:
        test = train[-1:]
    return X[train], y[train], X[test], y[test]
