"""Attack classifiers: JAC, NN, NN-single, and 1-D k-means (Sec. 4.1).

All three methods score each candidate label against a client's
observed index information; the decision stage either takes the known
number of labels (fixed setting) or clusters the scores with 1-D
2-means and returns the high cluster (random setting).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fl.client import TrainingConfig, train_stack
from ..fl.models import Sequential, mlp


def jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    """Jaccard similarity; 0 for two empty sets (no signal)."""
    if not a and not b:
        return 0.0
    union = len(a | b)
    return len(a & b) / union


def multi_hot(indices: frozenset[int], dim: int) -> np.ndarray:
    """Multi-hot feature vector of an observed index set."""
    x = np.zeros(dim)
    if indices:
        arr = np.fromiter((i for i in indices if 0 <= i < dim), dtype=np.int64)
        x[arr] = 1.0
    return x


def _nn_features(indices: frozenset[int], dim: int) -> np.ndarray:
    """L2-normalized multi-hot features for the NN attack models.

    Top-k index sets contain thousands of ones on paper-scale models;
    normalizing keeps the MLP's effective learning rate independent of
    k (the raw multi-hot is kept for JAC, which is scale-free).
    """
    x = multi_hot(indices, dim)
    norm = np.linalg.norm(x)
    if norm > 0:
        x /= norm
    return x


def kmeans_1d_top_cluster(scores: np.ndarray, iterations: int = 50) -> np.ndarray:
    """2-means on scalar scores; returns indices of the high cluster.

    Degenerates gracefully: constant scores yield the single best index
    (a minimal guess rather than "everything").
    """
    if len(scores) == 0:
        return np.empty(0, dtype=np.int64)
    lo, hi = float(scores.min()), float(scores.max())
    if hi - lo < 1e-12:
        return np.asarray([int(np.argmax(scores))], dtype=np.int64)
    centroids = np.asarray([lo, hi])
    for _ in range(iterations):
        assign = np.abs(scores[:, None] - centroids[None, :]).argmin(axis=1)
        new = centroids.copy()
        for c in range(2):
            members = scores[assign == c]
            if len(members):
                new[c] = members.mean()
        if np.allclose(new, centroids):
            break
        centroids = new
    top = int(np.argmax(centroids))
    return np.flatnonzero(assign == top).astype(np.int64)


@dataclass
class JacAttack:
    """Jaccard-similarity nearest-neighbour scoring (Algorithm 2, JAC).

    Scores label l by the Jaccard similarity between the client's
    observations (union over its rounds) and the teacher observations
    for l (union over the same rounds).
    """

    def score(
        self,
        observed_by_round: dict[int, frozenset[int]],
        teacher_by_round: dict[int, dict[int, list[frozenset[int]]]],
        n_labels: int,
    ) -> np.ndarray:
        client_union: set[int] = set()
        for obs in observed_by_round.values():
            client_union |= obs
        scores = np.zeros(n_labels)
        for label in range(n_labels):
            teacher_union: set[int] = set()
            for rnd in observed_by_round:
                for sample in teacher_by_round.get(rnd, {}).get(label, []):
                    teacher_union |= sample
            scores[label] = jaccard(frozenset(client_union), frozenset(teacher_union))
        return scores


def _attack_mlp(input_dim: int, n_labels: int, hidden: int,
                seed: int) -> Sequential:
    return mlp(input_dim, hidden, n_labels, np.random.default_rng(seed))


def _train_classifier(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    lr: float,
    batch_size: int,
    rng: np.random.Generator,
) -> None:
    """Minibatch SGD on the attack model, through the client trainer."""
    config = TrainingConfig(local_epochs=epochs, local_lr=lr,
                            batch_size=batch_size)
    train_stack(model, x[None], y[None], config, [rng])


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


@dataclass
class NnAttack:
    """Per-round MLP scoring (Algorithm 2, NN): one model per round,
    scores averaged across the client's rounds.

    The paper's attack models are 2-FC MLPs with a 1000-unit hidden
    layer; ``hidden`` defaults lower because the synthetic tasks are
    smaller, and is configurable.
    """

    hidden: int = 128
    epochs: int = 30
    lr: float = 0.5
    batch_size: int = 16
    seed: int = 0

    def fit_round_models(
        self,
        teacher_by_round: dict[int, dict[int, list[frozenset[int]]]],
        feature_dim: int,
        n_labels: int,
    ) -> dict[int, Sequential]:
        """Train M_t on round t's teacher observations."""
        rng = np.random.default_rng(self.seed)
        models: dict[int, Sequential] = {}
        for rnd, per_label in teacher_by_round.items():
            xs, ys = [], []
            for label, samples in per_label.items():
                for sample in samples:
                    xs.append(_nn_features(sample, feature_dim))
                    ys.append(label)
            model = _attack_mlp(feature_dim, n_labels, self.hidden,
                                self.seed + rnd)
            _train_classifier(
                model, np.asarray(xs), np.asarray(ys, dtype=np.int64),
                self.epochs, self.lr, self.batch_size, rng,
            )
            models[rnd] = model
        return models

    def score(
        self,
        observed_by_round: dict[int, frozenset[int]],
        models: dict[int, Sequential],
        feature_dim: int,
        n_labels: int,
    ) -> np.ndarray:
        scores = np.zeros(n_labels)
        used = 0
        for rnd, obs in observed_by_round.items():
            if rnd not in models:
                continue
            x = _nn_features(obs, feature_dim)[None, None, :]
            logits = models[rnd].forward(x, train=False)
            scores += _softmax(logits)[0, 0]
            used += 1
        if used:
            scores /= used
        return scores


@dataclass
class NnSingleAttack:
    """Single-model scoring (Algorithm 2, NN-single): one MLP over the
    concatenated multi-hot features of all rounds; rounds a client did
    not participate in are zeroed."""

    hidden: int = 256
    epochs: int = 30
    lr: float = 0.5
    batch_size: int = 16
    seed: int = 0

    def _concat_features(
        self,
        observed_by_round: dict[int, frozenset[int]],
        rounds: list[int],
        feature_dim: int,
    ) -> np.ndarray:
        parts = [
            _nn_features(observed_by_round.get(rnd, frozenset()), feature_dim)
            for rnd in rounds
        ]
        return np.concatenate(parts)

    def fit(
        self,
        teacher_by_round: dict[int, dict[int, list[frozenset[int]]]],
        feature_dim: int,
        n_labels: int,
    ) -> tuple[Sequential, list[int]]:
        """Train M_0 on concatenated teacher features of all rounds."""
        rounds = sorted(teacher_by_round.keys())
        rng = np.random.default_rng(self.seed)
        samples_per_label = min(
            len(teacher_by_round[rnd].get(0, [])) for rnd in rounds
        ) if rounds else 0
        xs, ys = [], []
        for label in range(n_labels):
            n_samples = min(
                len(teacher_by_round[rnd].get(label, [])) for rnd in rounds
            )
            for s in range(n_samples):
                per_round = {
                    rnd: teacher_by_round[rnd][label][s] for rnd in rounds
                }
                xs.append(self._concat_features(per_round, rounds, feature_dim))
                ys.append(label)
        del samples_per_label
        model = _attack_mlp(feature_dim * len(rounds), n_labels, self.hidden,
                            self.seed)
        _train_classifier(
            model, np.asarray(xs), np.asarray(ys, dtype=np.int64),
            self.epochs, self.lr, self.batch_size, rng,
        )
        return model, rounds

    def score(
        self,
        observed_by_round: dict[int, frozenset[int]],
        model: Sequential,
        rounds: list[int],
        feature_dim: int,
    ) -> np.ndarray:
        x = self._concat_features(observed_by_round, rounds, feature_dim)
        logits = model.forward(x[None, None, :], train=False)
        return _softmax(logits)[0, 0]


def decide_labels(
    scores: np.ndarray, known_count: int | None = None
) -> np.ndarray:
    """Final decision stage (Algorithm 2, lines 22-28)."""
    if known_count is not None:
        if not 1 <= known_count <= len(scores):
            raise ValueError("known label count out of range")
        top = np.argsort(scores)[::-1][:known_count]
        return np.sort(top).astype(np.int64)
    return np.sort(kmeans_1d_top_cluster(scores)).astype(np.int64)
