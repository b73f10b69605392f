"""End-to-end sensitive-label inference attack (Algorithm 2).

Pipeline, matching the paper step by step:

1. run (or receive) T traced OLIVE rounds and extract per-client
   observed index sets from the side channel (:mod:`.leakage`);
2. build *teacher* observations: for every round t and label l, replay
   local training from the round's global model on the attacker's
   public per-label data X_l and record the top-k index set, coarsened
   into the same observation space;
3. score every (client, label) pair with JAC / NN / NN-single;
4. decide the label set (known count, or 1-D 2-means otherwise);
5. report the ``all`` (exact-set) and ``top-1`` metrics of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs
from ..core.olive import OliveRoundLog
from ..fl.client import TrainingConfig
from ..fl.models import Sequential
from ..runtime import STREAM_TEACHER, replay_indices
from ..serving.engine import ServedBatch
from .classifiers import (
    JacAttack,
    NnAttack,
    NnSingleAttack,
    _attack_mlp,
    _nn_features,
    _softmax,
    _train_classifier,
    decide_labels,
    jaccard,
)
from .leakage import (
    coarsen_indices,
    feature_dim,
    observe_rounds,
    serving_feature_dim,
    serving_slot_observations,
)

METHODS = ("jac", "nn", "nn_single")


@dataclass(frozen=True)
class AttackConfig:
    """Attacker hyperparameters."""

    method: str = "jac"
    granularity: str = "word"
    teacher_samples_per_label: int = 3
    known_label_count: int | None = None
    nn_hidden: int = 128
    nn_epochs: int = 30
    nn_lr: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown attack method {self.method!r}")


@dataclass
class AttackResult:
    """Per-client inferences plus the paper's two success metrics."""

    inferred: dict[int, np.ndarray]
    scores: dict[int, np.ndarray]
    true_labels: dict[int, frozenset[int]]
    all_accuracy: float
    top1_accuracy: float


def build_teacher(
    logs: list[OliveRoundLog],
    model: Sequential,
    test_data_by_label: dict[int, np.ndarray],
    training: TrainingConfig,
    config: AttackConfig,
) -> dict[int, dict[int, list[frozenset[int]]]]:
    """Teacher observations teacher[t][l] (Algorithm 2, lines 9-12).

    The attacker splits its public X_l into
    ``teacher_samples_per_label`` shards and replays the client
    procedure (local SGD from theta^t, top-k sparsify) on each shard,
    yielding several observation samples per (round, label).

    All replays are independent and run through the cohort runtime's
    client core (:func:`repro.runtime.replay_indices`).  Each replay's
    randomness derives from its ``(round, label, shard)`` identity, so
    the teacher does not depend on the order the replays run in.
    """
    splits = max(1, config.teacher_samples_per_label)
    shards = {
        label: [(i, shard) for i, shard in enumerate(
            np.array_split(np.arange(len(x)), splits)) if len(shard)]
        for label, x in test_data_by_label.items()
    }
    teacher: dict[int, dict[int, list[frozenset[int]]]] = {
        log.round_index: {int(label): [] for label in test_data_by_label}
        for log in logs
    }
    with obs.span("attack.build_teacher", rounds=len(logs),
                  labels=len(test_data_by_label), splits=splits,
                  tasks=len(logs) * sum(map(len, shards.values()))):
        for log in logs:
            for label, x in test_data_by_label.items():
                for shard_idx, shard in shards[label]:
                    indices = replay_indices(
                        model, log.weights_before, x[shard],
                        np.full(len(shard), label), training,
                        entropy=config.seed, stream=STREAM_TEACHER,
                        key=(log.round_index, int(label), shard_idx),
                    )
                    teacher[log.round_index][int(label)].append(
                        coarsen_indices(indices, config.granularity))
                    obs.add("attack.teacher_samples")
    return teacher


def run_attack(
    logs: list[OliveRoundLog],
    model: Sequential,
    test_data_by_label: dict[int, np.ndarray],
    training: TrainingConfig,
    true_labels: dict[int, frozenset[int]],
    d: int,
    config: AttackConfig | None = None,
) -> AttackResult:
    """Execute Algorithm 2 over a sequence of traced rounds."""
    config = config or AttackConfig()
    n_labels = len(test_data_by_label)
    dim = feature_dim(d, config.granularity)

    attack_span = obs.span("attack.run", method=config.method,
                           rounds=len(logs), granularity=config.granularity)
    with attack_span:
        with obs.span("attack.observe"):
            observations = observe_rounds(logs, config.granularity)
        # Per client: round index -> observed set, only rounds joined.
        per_client: dict[int, dict[int, frozenset[int]]] = {}
        for round_obs in observations:
            for cid, observed in round_obs.observed.items():
                per_client.setdefault(cid, {})[round_obs.round_index] = (
                    observed
                )
        obs.add("attack.clients_observed", len(per_client))

        teacher = build_teacher(logs, model, test_data_by_label, training,
                                config)

        scores: dict[int, np.ndarray] = {}
        with obs.span("attack.score", method=config.method,
                      clients=len(per_client)):
            if config.method == "jac":
                attack = JacAttack()
                for cid, by_round in per_client.items():
                    scores[cid] = attack.score(by_round, teacher, n_labels)
            elif config.method == "nn":
                attack = NnAttack(
                    hidden=config.nn_hidden, epochs=config.nn_epochs,
                    lr=config.nn_lr, seed=config.seed,
                )
                models = attack.fit_round_models(teacher, dim, n_labels)
                for cid, by_round in per_client.items():
                    scores[cid] = attack.score(by_round, models, dim,
                                               n_labels)
            else:  # nn_single
                attack = NnSingleAttack(
                    hidden=config.nn_hidden, epochs=config.nn_epochs,
                    lr=config.nn_lr, seed=config.seed,
                )
                single_model, rounds = attack.fit(teacher, dim, n_labels)
                for cid, by_round in per_client.items():
                    scores[cid] = attack.score(by_round, single_model,
                                               rounds, dim)

        inferred: dict[int, np.ndarray] = {}
        with obs.span("attack.decide"):
            for cid, s in scores.items():
                known = config.known_label_count
                if known is not None and cid in true_labels:
                    # Fixed setting: the attacker knows the set size.
                    known = len(true_labels[cid])
                inferred[cid] = decide_labels(s, known_count=known)

    return AttackResult(
        inferred=inferred,
        scores=scores,
        true_labels=true_labels,
        all_accuracy=all_accuracy(inferred, true_labels),
        top1_accuracy=top1_accuracy(scores, true_labels),
    )


def all_accuracy(
    inferred: dict[int, np.ndarray], true_labels: dict[int, frozenset[int]]
) -> float:
    """Fraction of attacked clients whose label set matches exactly."""
    attacked = [cid for cid in inferred if cid in true_labels]
    if not attacked:
        return 0.0
    hits = sum(
        1 for cid in attacked
        if frozenset(int(lab) for lab in inferred[cid]) == true_labels[cid]
    )
    return hits / len(attacked)


def top1_accuracy(
    scores: dict[int, np.ndarray], true_labels: dict[int, frozenset[int]]
) -> float:
    """Fraction of clients whose highest-scored label is truly theirs."""
    attacked = [cid for cid in scores if cid in true_labels]
    if not attacked:
        return 0.0
    hits = sum(
        1 for cid in attacked
        if int(np.argmax(scores[cid])) in true_labels[cid]
    )
    return hits / len(attacked)


def chance_top1(true_labels: dict[int, frozenset[int]], n_labels: int) -> float:
    """Expected top-1 success of random guessing (baseline reference)."""
    if not true_labels:
        return 0.0
    return float(
        np.mean([len(s) / n_labels for s in true_labels.values()])
    )


# -- serving-side attack ------------------------------------------------
# The same adversary, retargeted at inference: from a served batch's
# trace it tries to recover *which class each slot was served* (the
# inference-time analogue of the sensitive-label attack).  The attacker
# first submits probe requests of known class and records their slot
# observations (teacher), then scores victim slots with the same
# classifier machinery -- Jaccard against per-class teacher sets, or
# the attack MLP trained on the probe observations.


@dataclass
class ServingAttackResult:
    """Per-slot class scores plus the headline leakage metric."""

    scores: np.ndarray       # (n_slots, n_labels)
    labels: np.ndarray       # (n_slots,) class actually served
    auc: float               # macro one-vs-rest AUC; 0.5 = no signal
    top1_accuracy: float
    method: str


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """Ranks (1-based) with ties sharing their average rank."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    start = 0
    while start < len(values):
        end = start
        while end + 1 < len(values) and sorted_vals[end + 1] == sorted_vals[start]:
            end += 1
        ranks[order[start : end + 1]] = (start + end + 2) / 2.0
        start = end + 1
    return ranks


def macro_ovr_auc(scores: np.ndarray, labels: np.ndarray,
                  n_labels: int) -> float:
    """Macro-averaged one-vs-rest AUC of a class-score matrix.

    Mann-Whitney with average-rank tie handling, so an attacker whose
    scores carry no information (all slots identical, as against the
    oblivious engine) lands on exactly 0.5.  Labels without both a
    positive and a negative slot are skipped; 0.5 if none qualify.
    """
    aucs = []
    for label in range(n_labels):
        positives = labels == label
        n_pos = int(positives.sum())
        n_neg = len(labels) - n_pos
        if n_pos == 0 or n_neg == 0:
            continue
        ranks = _average_ranks(scores[:, label])
        u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
        aucs.append(u / (n_pos * n_neg))
    return float(np.mean(aucs)) if aucs else 0.5


def run_serving_attack(
    victim_batches: list[ServedBatch],
    probe_batches: list[ServedBatch],
    n_labels: int,
    config: AttackConfig | None = None,
) -> ServingAttackResult:
    """Score how well the trace reveals which class each slot got.

    ``probe_batches`` are the attacker's own traced requests (classes
    known to it -- the serving teacher); ``victim_batches`` are the
    traced batches under attack.  Returns macro one-vs-rest AUC over
    victim slots: ~=0.5 against the oblivious engine, well above it
    against the plain row-read path.
    """
    config = config or AttackConfig()
    with obs.span("attack.serving", method=config.method,
                  victim_batches=len(victim_batches),
                  probe_batches=len(probe_batches)):
        victim_obs: list[frozenset[int]] = []
        victim_labels: list[int] = []
        for batch in victim_batches:
            victim_obs.extend(
                serving_slot_observations(batch, config.granularity)
            )
            victim_labels.extend(int(lab) for lab in batch.labels)
        teacher: dict[int, list[frozenset[int]]] = {
            label: [] for label in range(n_labels)
        }
        for batch in probe_batches:
            for observed, label in zip(
                serving_slot_observations(batch, config.granularity),
                batch.labels,
            ):
                teacher[int(label)].append(observed)
        obs.add("attack.serving_slots", len(victim_obs))

        n_slots = len(victim_obs)
        scores = np.zeros((n_slots, n_labels))
        if config.method == "jac":
            for i, observed in enumerate(victim_obs):
                for label in range(n_labels):
                    if teacher[label]:
                        scores[i, label] = max(
                            jaccard(observed, t) for t in teacher[label]
                        )
        else:  # nn / nn_single: one MLP over the probe observations
            dim = serving_feature_dim(n_labels, config.granularity)
            train_x = np.stack([
                _nn_features(observed, dim)
                for label in range(n_labels)
                for observed in teacher[label]
            ])
            train_y = np.asarray([
                label
                for label in range(n_labels)
                for _ in teacher[label]
            ])
            model = _attack_mlp(dim, n_labels, config.nn_hidden, config.seed)
            _train_classifier(
                model, train_x, train_y, config.nn_epochs, config.nn_lr,
                batch_size=32, rng=np.random.default_rng(config.seed),
            )
            features = np.stack(
                [_nn_features(observed, dim) for observed in victim_obs]
            )
            scores = _softmax(model.forward(features[None], train=False)[0])

        labels = np.asarray(victim_labels, dtype=np.int64)
        auc = macro_ovr_auc(scores, labels, n_labels)
        top1 = float(np.mean(scores.argmax(axis=1) == labels))
    return ServingAttackResult(
        scores=scores, labels=labels, auc=auc,
        top1_accuracy=top1, method=config.method,
    )
