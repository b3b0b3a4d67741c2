"""Seeded procedural images for the benchmark: numpy only, no downloads.

Each of the ten classes owns a random +/-1 motif of 6x6 pixels per channel.
An image is Gaussian noise with a few copies of its class motif pasted at
random positions, so the class is a local texture that a convolutional
network with global average pooling can pick up wherever it lands. The loss
of the reference networks falls steadily on this task from the first epoch.
"""

from __future__ import annotations

import numpy as np

CLASSES = 10
MOTIF = 6
COPIES = 4
NOISE = 0.1


def motifs(rng, channels):
    """One (channels, MOTIF, MOTIF) +/-1 pattern per class."""
    return rng.choice([-1.0, 1.0], (CLASSES, channels, MOTIF, MOTIF))


def draw(rng, protos, n, height, width):
    """n labelled images (n, c, height, width) float64 and int64 labels."""
    channels = protos.shape[1]
    labels = rng.integers(0, CLASSES, n)
    images = rng.normal(0.0, NOISE, (n, channels, height, width))
    rows = rng.integers(0, height - MOTIF + 1, (n, COPIES))
    cols = rng.integers(0, width - MOTIF + 1, (n, COPIES))
    for i, k in enumerate(labels):
        for r, c in zip(rows[i], cols[i]):
            images[i, :, r:r + MOTIF, c:c + MOTIF] += protos[k]
    return images, labels


def task(seed, input_shape, n_train, n_held):
    """Train and held-out splits drawn from one seeded generator."""
    rng = np.random.Generator(np.random.PCG64(seed))
    channels, height, width = input_shape
    protos = motifs(rng, channels)
    train = draw(rng, protos, n_train, height, width)
    held = draw(rng, protos, n_held, height, width)
    return train, held
