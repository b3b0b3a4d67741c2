"""Dataset loading (IDX and CIFAR-10 binary), SGD training, and evaluation."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import kernels as K
from . import netbuilder
from .kernels import ConfigError, NonFiniteError, nll

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataFormatError(ValueError):
    """Dataset file is malformed or internally inconsistent."""


class DivergenceError(RuntimeError):
    def __init__(self, step, detail):
        super().__init__(f"diverged at step {step}: {detail}")
        self.step = step


@dataclass
class Dataset:
    images: np.ndarray  # (n, c, h, w) float64 in [0, 1]
    labels: np.ndarray  # (n,) int64 in [0, classes)

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DataFormatError(f"images must be rank-4, got {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise DataFormatError(f"{len(self.images)} images vs "
                                  f"{len(self.labels)} labels")
        if len(self.labels) and self.labels.min() < 0:
            raise DataFormatError("negative label")

    def __len__(self):
        return len(self.images)


@dataclass
class TrainConfig:
    lr: float = 0.1
    momentum: float = 0.9
    batch_size: int = 64
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.lr < math.inf:
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not math.isfinite(self.momentum):
            raise ConfigError(f"momentum must be finite, got {self.momentum}")
        if self.batch_size < 1:
            raise ConfigError(f"batch size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)  # rows: (epoch, mean_loss, train_top1)

    def to_csv(self):
        lines = ["epoch,loss,top1"]
        for epoch, loss, top1 in self.epochs:
            lines.append(f"{epoch},{loss!r},{top1!r}")
        return "\n".join(lines) + "\n"


def _read_idx_header(data, path, expect_magic, n_dims):
    if len(data) < 4 * (1 + n_dims):
        raise DataFormatError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", data[:4])[0]
    if magic != expect_magic:
        raise DataFormatError(f"{path}: bad IDX magic 0x{magic:08x}, "
                              f"expected 0x{expect_magic:08x}")
    dims = struct.unpack(f">{n_dims}I", data[4:4 + 4 * n_dims])
    return dims, data[4 + 4 * n_dims:]


def load_idx(images_path, labels_path):
    """Load an IDX image/label pair (the MNIST container format), scaled to [0,1]."""
    with open(images_path, "rb") as fh:
        raw = fh.read()
    (n, h, w), body = _read_idx_header(raw, images_path, IDX_IMAGES_MAGIC, 3)
    if len(body) != n * h * w:
        raise DataFormatError(f"{images_path}: expected {n * h * w} pixel bytes, "
                              f"found {len(body)}")
    images = np.frombuffer(body, dtype=np.uint8).reshape(n, 1, h, w) / 255.0

    with open(labels_path, "rb") as fh:
        raw = fh.read()
    (nl,), body = _read_idx_header(raw, labels_path, IDX_LABELS_MAGIC, 1)
    if len(body) != nl:
        raise DataFormatError(f"{labels_path}: expected {nl} label bytes, "
                              f"found {len(body)}")
    if nl != n:
        raise DataFormatError(f"count mismatch: {n} images vs {nl} labels")
    labels = np.frombuffer(body, dtype=np.uint8).astype(np.int64)
    return Dataset(images, labels)


CIFAR_RECORD = 1 + 3 * 32 * 32


def load_cifar10(*batch_paths):
    """Load CIFAR-10 binary batches (3073-byte records: label + 3072 pixels)."""
    images, labels = [], []
    for path in batch_paths:
        with open(path, "rb") as fh:
            raw = fh.read()
        if not raw or len(raw) % CIFAR_RECORD:
            raise DataFormatError(f"{path}: size {len(raw)} is not a whole number "
                                  f"of {CIFAR_RECORD}-byte records")
        recs = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels.append(recs[:, 0].astype(np.int64))
        images.append(recs[:, 1:].reshape(-1, 3, 32, 32) / 255.0)
    return Dataset(np.concatenate(images), np.concatenate(labels))


def _sgd_step(net, velocities, lr, momentum):
    grads = dict(net.gradients())
    for name, param in net.parameters():
        v = velocities[name]
        v *= momentum
        v += grads[name]
        param -= lr * v


def _check_dataset(net, dataset, action):
    if len(dataset) == 0:
        raise ConfigError(f"cannot {action} an empty dataset")
    top, classes = int(dataset.labels.max()), net.spec.class_count
    if top >= classes:
        raise ConfigError(f"label {top} is out of range for a network with "
                          f"{classes} classes")


def train(net, dataset, config):
    """Minibatch SGD with momentum. Deterministic given config.seed.

    Each epoch visits the images in a fresh permutation from numpy's PCG64
    generator seeded with config.seed, so runs reproduce bitwise. A batch of
    n >= 2 images runs as two sub-batches, its first ceil(n/2) images and
    its last floor(n/2), each through ``loss_and_backward`` on its own
    replica: the network itself and one ``Network.replica``. They are
    shared by this thread and ``predict``'s helper, by ``predict``'s rule
    (``netbuilder.PREDICT_THREADS``). The split depends only on n, and the
    sub-batch gradients are summed in sub-batch order, so the trained bits
    do not depend on the thread count. The network's int8 blobs are
    dropped, since training moves the weights away from them. The network
    and its replica end, also after a failed run, holding no forward state:
    the last step's caches describe weights that have since moved.
    """
    _check_dataset(net, dataset, "train on")
    net.blobs.clear()
    replicas = [net, net.replica()]  # one per sub-batch
    try:
        return _train_epochs(replicas, dataset, config)
    finally:
        for r in replicas:
            r.clear_forward_state()


def _batch_gradients(replicas, x, labels):
    """The batch's probabilities, with the gradients of its mean loss left in
    ``replicas[0]``: each sub-batch's loss gradient divides by the whole n,
    and the second sub-batch's gradients are added to the first's. If
    sub-batches fail, the first failing one's error is raised."""
    n, half = len(x), (len(x) + 1) // 2
    parts = [(r, slice(lo, hi)) for r, lo, hi in zip(replicas, (0, half), (half, n))
             if lo < hi]

    def run(part):
        r, rows = part
        return r.loss_and_backward(x[rows], labels[rows], n)

    probs = np.concatenate(netbuilder._map_chunks(run, parts))
    if len(parts) == 2:
        for (_, g0), (_, g1) in zip(*(r.gradients() for r in replicas)):
            g0 += g1
    return probs


def _train_epochs(replicas, dataset, config):
    net = replicas[0]
    rng = np.random.Generator(np.random.PCG64(config.seed))
    velocities = {name: np.zeros_like(arr) for name, arr in net.parameters()}
    report = TrainReport()
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(len(dataset))
        losses = []
        correct = 0
        for start in range(0, len(dataset), config.batch_size):
            idx = order[start:start + config.batch_size]
            labels = dataset.labels[idx]
            try:
                probs = _batch_gradients(replicas, dataset.images[idx], labels)
            except NonFiniteError as e:
                raise DivergenceError(step, e) from e
            loss = K.cross_entropy(probs, labels)
            if not np.isfinite(loss):
                raise DivergenceError(step, f"non-finite loss {loss}")
            _sgd_step(net, velocities, config.lr, config.momentum)
            losses.append(loss * len(idx))
            correct += int((probs.argmax(axis=1) == labels).sum())
            step += 1
        report.epochs.append((epoch, sum(losses) / len(dataset),
                              correct / len(dataset)))
    return report


def evaluate(net, dataset, batch_size=256):
    """Top-1 accuracy (argmax ties -> lowest class index) and mean loss, from
    ``net.predict``, which runs each batch in chunks of ``PREDICT_CHUNK``
    images, shared by this thread and a helper thread when a second CPU and
    a one-thread BLAS allow it (``netbuilder.PREDICT_THREADS``, the rule
    ``train``'s sub-batches share). An image's
    probabilities do not depend on which batch, chunk or thread holds it,
    and the per-image losses are summed exactly (``math.fsum``), so the
    mean does not depend on the order of the images."""
    _check_dataset(net, dataset, "evaluate")
    correct = 0
    losses = []
    for start in range(0, len(dataset), batch_size):
        sl = slice(start, start + batch_size)
        probs = net.predict(dataset.images[sl])
        labels = dataset.labels[sl]
        correct += int((probs.argmax(axis=1) == labels).sum())
        losses.extend(nll(probs, labels))
    return correct / len(dataset), math.fsum(losses) / len(dataset)
