"""The training loop and dataset splitting.

The paper trains for 50 epochs on data split 3:1:1 into training,
testing, and validation sets; :func:`three_way_split` reproduces that
split (stratified so both classes appear in every part) and
:func:`train_classifiers` runs minibatch gradient descent with
per-epoch loss tracking for a stack of same-architecture models that
share one batch schedule (:func:`train_classifier` is the stack of
one).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.ml.losses import BinaryCrossEntropy, Loss
from repro.ml.network import NetworkStack, NeuralNetwork
from repro.ml.optimizers import Adam, Optimizer
from repro.parallel import require_generator


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters (paper defaults)."""

    epochs: int = 50
    batch_size: int = 32
    shuffle: bool = True
    standardize: bool = True

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")


@dataclasses.dataclass
class FeatureScaler:
    """Per-feature standardization fitted on the training set."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, features: np.ndarray) -> "FeatureScaler":
        x = np.asarray(features, dtype="float64")
        std = x.std(axis=0)
        std[std < 1e-12] = 1.0
        return cls(mean=x.mean(axis=0), std=std)

    def transform(self, features: np.ndarray) -> np.ndarray:
        return (np.asarray(features, dtype="float64") - self.mean) / self.std


@dataclasses.dataclass
class TrainResult:
    """A trained classifier with its scaler and loss history."""

    network: NeuralNetwork
    scaler: Optional[FeatureScaler]
    train_losses: List[float]
    validation_losses: List[float]

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        x = self.scaler.transform(features) if self.scaler else features
        return self.network.predict_proba(x)

    def predict(self, features: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(features) >= threshold).astype(int)


def three_way_split(
    features: np.ndarray,
    labels: np.ndarray,
    rng: np.random.Generator,
    ratio: Tuple[int, int, int] = (3, 1, 1),
) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Stratified train/test/validation split at the given ratio.

    Returns:
        ((x_train, y_train), (x_test, y_test), (x_val, y_val)).

    Raises:
        ValueError: on bad ratios or mismatched lengths.
        TypeError: if ``rng`` is not an explicit ``np.random.Generator``
            (implicit/legacy seeding could silently diverge between the
            serial and per-process reseeded parallel paths).
    """
    require_generator(rng)
    x = np.asarray(features, dtype="float64")
    y = np.asarray(labels).astype(int).ravel()
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels length mismatch")
    if any(r <= 0 for r in ratio):
        raise ValueError(f"split ratio parts must be positive, got {ratio}")
    total = sum(ratio)
    parts: List[List[int]] = [[], [], []]
    for cls in np.unique(y):
        indices = np.flatnonzero(y == cls)
        rng.shuffle(indices)
        n = len(indices)
        cut1 = int(round(n * ratio[0] / total))
        cut2 = cut1 + int(round(n * ratio[1] / total))
        parts[0].extend(indices[:cut1])
        parts[1].extend(indices[cut1:cut2])
        parts[2].extend(indices[cut2:])
    out = []
    for indices in parts:
        chosen = np.array(sorted(indices), dtype=int)
        out.append((x[chosen], y[chosen]))
    return out[0], out[1], out[2]


def train_classifier(
    network: NeuralNetwork,
    x_train: np.ndarray,
    y_train: np.ndarray,
    config: Optional[TrainConfig] = None,
    optimizer: Optional[Optimizer] = None,
    loss: Optional[Loss] = None,
    rng: Optional[np.random.Generator] = None,
    x_val: Optional[np.ndarray] = None,
    y_val: Optional[np.ndarray] = None,
) -> TrainResult:
    """Train a binary classifier with minibatch gradient descent.

    The stack of one of :func:`train_classifiers`.

    Args:
        network: The (freshly initialized) model; trained in place.
        x_train: Training features ``(n, d)``.
        y_train: Binary labels ``(n,)``.
        config: Epochs/batching (paper: 50 epochs).
        optimizer: Defaults to Adam.
        loss: Defaults to binary cross-entropy.
        rng: Shuffling randomness.
        x_val / y_val: Optional validation set for per-epoch loss
            tracking.

    Returns:
        The trained model wrapped with its feature scaler and the loss
        history.
    """
    validate = x_val is not None and y_val is not None
    return train_classifiers(
        [network],
        [x_train],
        [y_train],
        config=config,
        optimizer=optimizer,
        loss=loss,
        rng=rng,
        x_val=[x_val] if validate else None,
        y_val=[y_val] if validate else None,
    )[0]


def train_classifiers(
    networks: Sequence[NeuralNetwork],
    x_train: Sequence[np.ndarray],
    y_train: Sequence[np.ndarray],
    config: Optional[TrainConfig] = None,
    optimizer: Optional[Optimizer] = None,
    loss: Optional[Loss] = None,
    rng: Optional[np.random.Generator] = None,
    x_val: Optional[Sequence[np.ndarray]] = None,
    y_val: Optional[Sequence[np.ndarray]] = None,
) -> List[TrainResult]:
    """Train ``G`` same-architecture classifiers in lockstep.

    The models share one batch schedule: every epoch's visit order is
    drawn once from ``rng`` (``rng.permutation(n)``, the stream a lone
    model would draw), and each minibatch is one stacked forward,
    backward and optimizer step over all ``G`` models (see
    :class:`~repro.ml.network.NetworkStack`).  Each model gets the same
    bits as when trained alone with a generator in the same state,
    including its feature scaler and loss histories.

    Args:
        networks: The models, same architecture; trained in place.
        x_train: One ``(n, d)`` feature matrix per model, the same ``n``.
        y_train: One binary label vector ``(n,)`` per model.
        config: Epochs/batching (paper: 50 epochs).
        optimizer: One optimizer for the whole stack; defaults to Adam.
        loss: Defaults to binary cross-entropy.
        rng: Shuffling randomness, shared by the stack.
        x_val / y_val: Optional per-model validation sets for per-epoch
            loss tracking, scored by inference.

    Returns:
        One :class:`TrainResult` per model, in order.

    Raises:
        ValueError: on mismatched lengths, or training sets of
            different sizes.
    """
    cfg = config if config is not None else TrainConfig()
    opt = optimizer if optimizer is not None else Adam()
    criterion = loss if loss is not None else BinaryCrossEntropy()
    rng = rng if rng is not None else np.random.default_rng(0)
    if not len(networks) == len(x_train) == len(y_train):
        raise ValueError("one training set per network is required")
    stack = NetworkStack(networks)

    xs = [np.asarray(x, dtype="float64") for x in x_train]
    ys = [np.asarray(y, dtype="float64").reshape(-1, 1) for y in y_train]
    if any(x.shape[0] != y.shape[0] for x, y in zip(xs, ys)):
        raise ValueError("features and labels length mismatch")
    if len({x.shape[0] for x in xs}) > 1:
        raise ValueError("stacked training sets must have the same row count")
    validate = x_val is not None and y_val is not None
    x_vals = list(x_val) if validate else []
    scalers = [FeatureScaler.fit(x) if cfg.standardize else None for x in xs]
    if cfg.standardize:
        xs = [scaler.transform(x) for scaler, x in zip(scalers, xs)]
        x_vals = [scaler.transform(x) for scaler, x in zip(scalers, x_vals)]
    y_vals = [np.asarray(y).reshape(-1, 1) for y in y_val] if validate else []
    x = np.stack(xs)
    y = np.stack(ys)

    train_losses: List[np.ndarray] = []
    val_losses: List[List[float]] = [[] for _ in networks]
    n = x.shape[1]
    # Preshuffled epoch index matrix: every epoch's visit order is drawn
    # up front (same generator stream as per-epoch shuffles), so the
    # inner loop is pure slicing.
    if cfg.shuffle:
        orders = np.empty((cfg.epochs, n), dtype=np.intp)
        for epoch in range(cfg.epochs):
            orders[epoch] = rng.permutation(n)
    else:
        orders = np.broadcast_to(np.arange(n, dtype=np.intp), (cfg.epochs, n))
    batch_starts = range(0, n, cfg.batch_size)
    batches = max(1, len(batch_starts))
    for epoch in range(cfg.epochs):
        order = orders[epoch]
        epoch_loss = np.zeros(len(networks))
        for start in batch_starts:
            batch = order[start : start + cfg.batch_size]
            x_batch = x[:, batch]
            y_batch = y[:, batch]
            predicted = stack.forward(x_batch)
            epoch_loss += criterion.stack_values(predicted, y_batch)
            stack.backward(criterion.stack_gradient(predicted, y_batch))
            opt.step(stack.params, stack.grads)
        train_losses.append(epoch_loss / batches)
        if validate:
            stack.store()
            for network, features, labels, history in zip(
                networks, x_vals, y_vals, val_losses
            ):
                history.append(criterion.value(network.forward(features), labels))
    stack.store()
    return [
        TrainResult(
            network=network,
            scaler=scaler,
            train_losses=[float(losses[g]) for losses in train_losses],
            validation_losses=val_losses[g],
        )
        for g, (network, scaler) in enumerate(zip(networks, scalers))
    ]
