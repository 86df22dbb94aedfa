"""Synthetic digit-classification datasets.

Offline stand-ins for MNIST and SVHN (see README.md, "Substitutions"):

* :func:`mnist_like` — 28x28 grayscale, clean bright digit on a dark
  background with mild jitter and noise (MNIST's regime);
* :func:`svhn_like` — 32x32 grayscale, digit over cluttered backgrounds
  with distractor digit fragments, varying contrast/polarity and heavier
  noise (SVHN's street-number regime, minus color).

Both render a 5x7 bitmap glyph font with random scale, position, stroke
intensity and noise, deterministically from the given generator.  What
the paper's experiments need from the data — a trainable 10-class image
task producing zero-peaked trained-weight distributions — is preserved.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

__all__ = ["DIGIT_GLYPHS", "render_digit", "mnist_like", "svhn_like"]

_GLYPH_ROWS: Dict[int, Tuple[str, ...]] = {
    0: (" ### ", "#   #", "#  ##", "# # #", "##  #", "#   #", " ### "),
    1: ("  #  ", " ##  ", "  #  ", "  #  ", "  #  ", "  #  ", " ### "),
    2: (" ### ", "#   #", "    #", "   # ", "  #  ", " #   ", "#####"),
    3: (" ### ", "#   #", "    #", "  ## ", "    #", "#   #", " ### "),
    4: ("   # ", "  ## ", " # # ", "#  # ", "#####", "   # ", "   # "),
    5: ("#####", "#    ", "#### ", "    #", "    #", "#   #", " ### "),
    6: (" ### ", "#    ", "#    ", "#### ", "#   #", "#   #", " ### "),
    7: ("#####", "    #", "   # ", "  #  ", " #   ", " #   ", " #   "),
    8: (" ### ", "#   #", "#   #", " ### ", "#   #", "#   #", " ### "),
    9: (" ### ", "#   #", "#   #", " ####", "    #", "    #", " ### "),
}

#: Digit -> 7x5 float bitmap in {0, 1}.
DIGIT_GLYPHS: Dict[int, np.ndarray] = {
    digit: np.array(
        [[1.0 if ch == "#" else 0.0 for ch in row] for row in rows]
    )
    for digit, rows in _GLYPH_ROWS.items()
}


def render_digit(
    digit: int,
    size: int,
    rng: np.random.Generator,
    scale_range: Tuple[int, int] = (2, 3),
    intensity_range: Tuple[float, float] = (0.7, 1.0),
) -> np.ndarray:
    """Render one digit glyph onto a ``size x size`` black canvas.

    The glyph is nearest-neighbor upscaled by a random integer factor and
    placed at a random position; stroke intensity is randomized.

    Returns:
        Float image in [0, 1] of shape ``(size, size)``.
    """
    if digit not in DIGIT_GLYPHS:
        raise ValueError(f"digit must be 0-9, got {digit}")
    glyph = DIGIT_GLYPHS[digit]
    factor = int(rng.integers(scale_range[0], scale_range[1] + 1))
    sprite = np.kron(glyph, np.ones((factor, factor)))
    gh, gw = sprite.shape
    if gh > size or gw > size:
        raise ValueError(f"glyph {gh}x{gw} does not fit canvas {size}")
    canvas = np.zeros((size, size))
    top = int(rng.integers(0, size - gh + 1))
    left = int(rng.integers(0, size - gw + 1))
    intensity = rng.uniform(*intensity_range)
    canvas[top : top + gh, left : left + gw] = sprite * intensity
    return canvas


def mnist_like(
    count: int,
    rng: np.random.Generator,
    size: int = 28,
    noise: float = 0.05,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate an MNIST-like set.

    Returns:
        ``(images, labels)``: float images ``(count, size, size, 1)`` in
        [0, 1] and int labels ``(count,)``.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    labels = rng.integers(0, 10, size=count)
    images = np.empty((count, size, size, 1))
    for k in range(count):
        img = render_digit(int(labels[k]), size, rng)
        img = img + rng.normal(0.0, noise, size=img.shape)
        images[k, :, :, 0] = np.clip(img, 0.0, 1.0)
    return images, labels.astype(np.int64)


def _clutter_background(size: int, rng: np.random.Generator) -> np.ndarray:
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64) / size
    angle = rng.uniform(0, 2 * np.pi)
    ramp = np.cos(angle) * xs + np.sin(angle) * ys
    base = rng.uniform(0.25, 0.6)
    bg = base + 0.25 * (ramp - ramp.mean())
    # A few soft blobs of clutter.
    for _ in range(int(rng.integers(1, 4))):
        cx, cy = rng.uniform(0, size, size=2)
        sigma = rng.uniform(size / 8, size / 3)
        amp = rng.uniform(-0.2, 0.2)
        bg += amp * np.exp(
            -(((xs * size - cx) ** 2 + (ys * size - cy) ** 2) / (2 * sigma**2))
        )
    return bg


def svhn_like(
    count: int,
    rng: np.random.Generator,
    size: int = 32,
    noise: float = 0.08,
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate an SVHN-like set: digits over cluttered backgrounds.

    The central digit determines the label; partial distractor digits may
    intrude from the left/right edges, and digit/background polarity is
    random — the properties that make SVHN harder than MNIST.

    Returns:
        ``(images, labels)`` with images ``(count, size, size, 1)``.
    """
    if count <= 0:
        raise ValueError("count must be positive")
    labels = rng.integers(0, 10, size=count)
    images = np.empty((count, size, size, 1))
    for k in range(count):
        bg = _clutter_background(size, rng)
        contrast = rng.uniform(0.35, 0.6) * (1 if rng.random() < 0.5 else -1)

        digit_img = np.zeros((size, size))
        glyph = DIGIT_GLYPHS[int(labels[k])]
        factor = int(rng.integers(2, 4))
        sprite = np.kron(glyph, np.ones((factor, factor)))
        gh, gw = sprite.shape
        top = int(rng.integers(2, size - gh - 1))
        left = int(rng.integers((size - gw) // 4, size - gw - (size - gw) // 4 + 1))
        digit_img[top : top + gh, left : left + gw] = sprite

        # Distractor fragments sliding in from the sides.
        for side in (-1, 1):
            if rng.random() < 0.6:
                d = int(rng.integers(0, 10))
                frag = np.kron(DIGIT_GLYPHS[d], np.ones((factor, factor)))
                fh, fw = frag.shape
                ftop = int(rng.integers(0, size - fh + 1))
                if side < 0:
                    vis = int(rng.integers(1, fw // 2 + 1))
                    digit_img[ftop : ftop + fh, :vis] = np.maximum(
                        digit_img[ftop : ftop + fh, :vis], frag[:, fw - vis :]
                    )
                else:
                    vis = int(rng.integers(1, fw // 2 + 1))
                    digit_img[ftop : ftop + fh, size - vis :] = np.maximum(
                        digit_img[ftop : ftop + fh, size - vis :], frag[:, :vis]
                    )

        img = bg + contrast * digit_img
        img = img + rng.normal(0.0, noise, size=img.shape)
        images[k, :, :, 0] = np.clip(img, 0.0, 1.0)
    return images, labels.astype(np.int64)
