"""Synthetic grayscale test images.

Stands in for the paper's 25-image PSNR evaluation set (see README.md,
"Substitutions"): the Gaussian-filter experiment only needs a pool of
smooth-ish 8-bit images with varied content, which these generators
provide deterministically from a seed.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = [
    "gradient_image",
    "blob_image",
    "checker_image",
    "smooth_noise_image",
    "standard_image_suite",
]


def _to_u8(img: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def gradient_image(size: int, angle: float = 0.0) -> np.ndarray:
    """Linear luminance ramp across the image at the given angle."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    t = np.cos(angle) * xs + np.sin(angle) * ys
    t -= t.min()
    span = t.max() or 1.0
    return _to_u8(255.0 * t / span)


def blob_image(size: int, rng: np.random.Generator, blobs: int = 5) -> np.ndarray:
    """Sum of random Gaussian blobs — smooth natural-ish content."""
    ys, xs = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.zeros((size, size))
    for _ in range(blobs):
        cx, cy = rng.uniform(0, size, size=2)
        sigma = rng.uniform(size / 12, size / 4)
        amp = rng.uniform(60, 255)
        img += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma**2))
    peak = img.max() or 1.0
    return _to_u8(255.0 * img / peak)


def checker_image(size: int, cell: int = 8, low: int = 40, high: int = 215) -> np.ndarray:
    """Checkerboard — high-frequency content stressing the filter."""
    if cell <= 0:
        raise ValueError("cell must be positive")
    ys, xs = np.mgrid[0:size, 0:size]
    board = ((xs // cell) + (ys // cell)) % 2
    return _to_u8(np.where(board, high, low))


def smooth_noise_image(
    size: int, rng: np.random.Generator, passes: int = 4
) -> np.ndarray:
    """Low-pass-filtered uniform noise (cloud-like texture)."""
    img = rng.uniform(0, 255, size=(size, size))
    kernel = np.array([1.0, 2.0, 1.0]) / 4.0
    for _ in range(passes):
        img = np.apply_along_axis(
            lambda row: np.convolve(row, kernel, mode="same"), 0, img
        )
        img = np.apply_along_axis(
            lambda row: np.convolve(row, kernel, mode="same"), 1, img
        )
    img -= img.min()
    span = img.max() or 1.0
    return _to_u8(255.0 * img / span)


def standard_image_suite(
    count: int = 25, size: int = 64, seed: int = 2019
) -> List[np.ndarray]:
    """Deterministic pool of ``count`` synthetic 8-bit test images."""
    if count <= 0 or size <= 0:
        raise ValueError("count and size must be positive")
    rng = np.random.default_rng(seed)
    makers = [
        lambda: gradient_image(size, angle=rng.uniform(0, np.pi)),
        lambda: blob_image(size, rng, blobs=int(rng.integers(3, 8))),
        lambda: checker_image(size, cell=int(rng.integers(4, 12))),
        lambda: smooth_noise_image(size, rng),
    ]
    return [makers[k % len(makers)]() for k in range(count)]
