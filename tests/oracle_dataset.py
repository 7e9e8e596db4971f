"""The synthetic digit set as it was rendered before glyph placement became
one assignment through a window view: one Python iteration per image, with
two scalar clips.

Test-only oracle: `synthetic_mnist_set` is kept verbatim. The engine's
vectorized placement must give the same images and labels, byte for byte.
Do not edit it.
"""

import numpy as np

from sabotagebench.dataset import MnistSet, _glyph_array


def synthetic_mnist_set(
    count: int,
    seed: int,
    image_size: int = 28,
    noise: float = 0.12,
    max_shift: int = 3,
) -> MnistSet:
    """Render a learnable 10-class stand-in for MNIST: upscaled digit glyphs
    at random offsets with additive pixel noise. Deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5D]))
    scale = max(1, image_size // 8)
    glyphs = {
        d: np.kron(_glyph_array(d), np.ones((scale, scale), dtype=np.float32))
        for d in range(10)
    }
    labels = rng.integers(0, 10, size=count)
    images = np.zeros((count, 1, image_size, image_size), dtype=np.float32)
    gh, gw = glyphs[0].shape
    base_r = (image_size - gh) // 2
    base_c = (image_size - gw) // 2
    shift_r = rng.integers(-max_shift, max_shift + 1, size=count)
    shift_c = rng.integers(-max_shift, max_shift + 1, size=count)
    for i in range(count):
        r = int(np.clip(base_r + shift_r[i], 0, image_size - gh))
        c = int(np.clip(base_c + shift_c[i], 0, image_size - gw))
        images[i, 0, r : r + gh, c : c + gw] = glyphs[int(labels[i])]
    if noise:
        images += rng.uniform(0, noise, size=images.shape).astype(np.float32)
        np.clip(images, 0.0, 1.0, out=images)
    return MnistSet(images, labels)
