"""CART-style decision-tree classifier.

Decision trees are one of the alternative expert-selector classifiers the
paper compares against (Table 5, 96.8 % accuracy) and are the base learner
of the random forest in :mod:`repro.ml.random_forest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["DecisionTreeClassifier"]


@dataclass
class _Node:
    """A node in the fitted tree; leaves carry a class label."""

    prediction: object = None
    feature: int | None = None
    threshold: float | None = None
    left: "_Node | None" = None
    right: "_Node | None" = None
    samples: int = 0
    class_counts: dict = field(default_factory=dict)

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


def _gini(labels: np.ndarray) -> float:
    """Gini impurity of a label array."""
    if len(labels) == 0:
        return 0.0
    _, counts = np.unique(labels, return_counts=True)
    proportions = counts / counts.sum()
    return float(1.0 - np.sum(proportions ** 2))


class DecisionTreeClassifier:
    """Binary CART tree grown by greedy Gini-impurity minimisation.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until pure or ``min_samples_split``.
    min_samples_split:
        Minimum number of samples required to attempt a split.
    max_features:
        If set, the number of features sampled (without replacement) at each
        split — used by the random forest for de-correlation.
    seed:
        Seed for the feature sub-sampling.
    """

    def __init__(self, max_depth: int | None = None, min_samples_split: int = 2,
                 max_features: int | None = None, seed: int | None = None) -> None:
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.max_features = max_features
        self.seed = seed
        self._root: _Node | None = None
        self._rng = np.random.default_rng(seed)

    def fit(self, X, y) -> "DecisionTreeClassifier":
        """Grow the tree on the given samples."""
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.ndim != 2:
            raise ValueError("DecisionTreeClassifier expects a 2-D sample matrix")
        if len(X) != len(y):
            raise ValueError("X and y must have the same number of samples")
        if len(X) == 0:
            raise ValueError("cannot fit a tree on zero samples")
        self._root = self._grow(X, y, depth=0)
        return self

    def _candidate_features(self, n_features: int) -> np.ndarray:
        if self.max_features is None or self.max_features >= n_features:
            return np.arange(n_features)
        return self._rng.choice(n_features, size=self.max_features, replace=False)

    def _best_split(self, X: np.ndarray, y: np.ndarray):
        """Find the (feature, threshold) pair with the lowest weighted Gini.

        Zero-gain splits are still accepted when the node is impure: patterns
        such as XOR have no single split that reduces the Gini impurity, yet
        splitting is required before any progress can be made deeper in the
        tree.  Every accepted split leaves both children non-empty, so the
        recursion always terminates.
        """
        best = None
        parent_impurity = _gini(y)
        n_samples, n_features = X.shape
        for feature in self._candidate_features(n_features):
            values = np.unique(X[:, feature])
            if len(values) < 2:
                continue
            thresholds = (values[:-1] + values[1:]) / 2.0
            for threshold in thresholds:
                left_mask = X[:, feature] <= threshold
                n_left = int(left_mask.sum())
                n_right = n_samples - n_left
                if n_left == 0 or n_right == 0:
                    continue
                impurity = (
                    n_left * _gini(y[left_mask]) + n_right * _gini(y[~left_mask])
                ) / n_samples
                gain = parent_impurity - impurity
                if gain < -1e-12:
                    continue
                if best is None or gain > best[0]:
                    best = (gain, int(feature), float(threshold))
        return best

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        values, counts = np.unique(y, return_counts=True)
        node = _Node(
            prediction=values[np.argmax(counts)],
            samples=len(y),
            class_counts={v: int(c) for v, c in zip(values.tolist(), counts.tolist())},
        )
        if len(values) == 1:
            return node
        if self.max_depth is not None and depth >= self.max_depth:
            return node
        if len(y) < self.min_samples_split:
            return node
        split = self._best_split(X, y)
        if split is None:
            return node
        _, feature, threshold = split
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node

    def _predict_one(self, row: np.ndarray) -> object:
        node = self._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.prediction

    def predict(self, X) -> np.ndarray:
        """Predict the class of each sample."""
        if self._root is None:
            raise RuntimeError("DecisionTreeClassifier must be fitted before predicting")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return np.asarray([self._predict_one(row) for row in X])

    def depth(self) -> int:
        """Depth of the fitted tree (a single leaf has depth 0)."""
        if self._root is None:
            raise RuntimeError("DecisionTreeClassifier must be fitted first")

        def _depth(node: _Node) -> int:
            if node.is_leaf:
                return 0
            return 1 + max(_depth(node.left), _depth(node.right))

        return _depth(self._root)

    def node_count(self) -> int:
        """Total number of nodes in the fitted tree."""
        if self._root is None:
            raise RuntimeError("DecisionTreeClassifier must be fitted first")

        def _count(node: _Node) -> int:
            if node.is_leaf:
                return 1
            return 1 + _count(node.left) + _count(node.right)

        return _count(self._root)
