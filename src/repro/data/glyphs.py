"""A tiny bitmap glyph font and a procedural glyph renderer.

This is the image-generation engine behind the synthetic MNIST and
FEMNIST stand-ins: each sample is a 5x7 glyph pasted onto a canvas with
randomized shift, shear (slant), thickness (dilation) and pixel noise.
Per-*sample* randomization gives MNIST-like intra-class variation;
per-*writer* randomization (fixing the style parameters per writer)
gives FEMNIST-like feature-distribution skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.exceptions import DataError

_FONT_ROWS = {
    "0": ["01110", "10001", "10011", "10101", "11001", "10001", "01110"],
    "1": ["00100", "01100", "00100", "00100", "00100", "00100", "01110"],
    "2": ["01110", "10001", "00001", "00110", "01000", "10000", "11111"],
    "3": ["11111", "00010", "00100", "00010", "00001", "10001", "01110"],
    "4": ["00010", "00110", "01010", "10010", "11111", "00010", "00010"],
    "5": ["11111", "10000", "11110", "00001", "00001", "10001", "01110"],
    "6": ["00110", "01000", "10000", "11110", "10001", "10001", "01110"],
    "7": ["11111", "00001", "00010", "00100", "01000", "01000", "01000"],
    "8": ["01110", "10001", "10001", "01110", "10001", "10001", "01110"],
    "9": ["01110", "10001", "10001", "01111", "00001", "00010", "01100"],
    "A": ["01110", "10001", "10001", "11111", "10001", "10001", "10001"],
    "B": ["11110", "10001", "10001", "11110", "10001", "10001", "11110"],
    "C": ["01110", "10001", "10000", "10000", "10000", "10001", "01110"],
    "D": ["11100", "10010", "10001", "10001", "10001", "10010", "11100"],
    "E": ["11111", "10000", "10000", "11110", "10000", "10000", "11111"],
    "F": ["11111", "10000", "10000", "11110", "10000", "10000", "10000"],
    "G": ["01110", "10001", "10000", "10111", "10001", "10001", "01111"],
    "H": ["10001", "10001", "10001", "11111", "10001", "10001", "10001"],
    "I": ["01110", "00100", "00100", "00100", "00100", "00100", "01110"],
    "J": ["00111", "00010", "00010", "00010", "00010", "10010", "01100"],
    "K": ["10001", "10010", "10100", "11000", "10100", "10010", "10001"],
    "L": ["10000", "10000", "10000", "10000", "10000", "10000", "11111"],
    "M": ["10001", "11011", "10101", "10101", "10001", "10001", "10001"],
    "N": ["10001", "10001", "11001", "10101", "10011", "10001", "10001"],
    "O": ["01110", "10001", "10001", "10001", "10001", "10001", "01110"],
    "P": ["11110", "10001", "10001", "11110", "10000", "10000", "10000"],
    "Q": ["01110", "10001", "10001", "10001", "10101", "10010", "01101"],
    "R": ["11110", "10001", "10001", "11110", "10100", "10010", "10001"],
    "S": ["01111", "10000", "10000", "01110", "00001", "00001", "11110"],
    "T": ["11111", "00100", "00100", "00100", "00100", "00100", "00100"],
    "U": ["10001", "10001", "10001", "10001", "10001", "10001", "01110"],
    "V": ["10001", "10001", "10001", "10001", "10001", "01010", "00100"],
    "W": ["10001", "10001", "10001", "10101", "10101", "10101", "01010"],
    "X": ["10001", "10001", "01010", "00100", "01010", "10001", "10001"],
    "Y": ["10001", "10001", "01010", "00100", "00100", "00100", "00100"],
    "Z": ["11111", "00001", "00010", "00100", "01000", "10000", "11111"],
}

GLYPH_SET = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@lru_cache(maxsize=None)  # bounded by the font: an unknown char raises, uncached
def glyph_bitmap(char: str) -> np.ndarray:
    """The 7x5 float bitmap for a supported character.

    Parsed once; the array is shared by every caller and read-only.
    """
    if char not in _FONT_ROWS:
        raise DataError(f"no glyph for {char!r}")
    bitmap = np.array([[float(c) for c in row] for row in _FONT_ROWS[char]])
    bitmap.setflags(write=False)
    return bitmap


@dataclass(frozen=True)
class GlyphStyle:
    """Rendering style knobs; fixed per writer for FEMNIST-like skew.

    Attributes:
        shear: horizontal slant in pixels per row (negative = left).
        thickness: 0 = thin strokes, 1 = dilated strokes.
        scale: integer upscale factor of the 5x7 bitmap.
        intensity: stroke brightness in (0, 1].
        noise: per-pixel Gaussian noise sigma.
    """

    shear: float = 0.0
    thickness: int = 0
    scale: int = 1
    intensity: float = 1.0
    noise: float = 0.1


def _dilate(bitmap: np.ndarray) -> np.ndarray:
    """4-neighborhood binary dilation (stroke thickening)."""
    padded = np.pad(bitmap, 1)
    out = (
        padded[1:-1, 1:-1]
        + padded[:-2, 1:-1]
        + padded[2:, 1:-1]
        + padded[1:-1, :-2]
        + padded[1:-1, 2:]
    )
    return (out > 0).astype(np.float64)


def _row_shifts(rows: int, shear: float) -> tuple[int, ...]:
    """Whole-pixel shift of each row under ``shear`` pixels per row."""
    return tuple([int(round(shear * row)) for row in range(rows)])


def _shift_rows(img: np.ndarray, shifts: tuple[int, ...]) -> np.ndarray:
    """Shift row ``i`` horizontally by ``shifts[i]``, filling with zeros."""
    out = np.zeros_like(img)
    for row, shift in enumerate(shifts):
        out[row] = np.roll(img[row], shift)
        if shift > 0:
            out[row, :shift] = 0.0
        elif shift < 0:
            out[row, shift:] = 0.0
    return out


@lru_cache(maxsize=1024)
def _styled_bitmap(
    char: str, thickness: int, scale: int, shifts: tuple[int, ...]
) -> np.ndarray:
    """The deterministic half of a render: parse, dilate, scale, shear.

    A shear enters only through its per-row shift tuple, so the
    continuum of per-sample slants collapses onto a handful of entries:
    a per-sample-styled digit set needs ~150 (10 chars x 2 thicknesses
    x 7 tuples).  The bound keeps a FEMNIST corpus (writers x chars)
    from growing the memo for the life of the process.  The result is
    shared between renders and therefore read-only.
    """
    bitmap = glyph_bitmap(char)
    for _ in range(thickness):
        bitmap = _dilate(bitmap)
    if scale > 1:
        bitmap = np.kron(bitmap, np.ones((scale, scale)))
    bitmap = _shift_rows(bitmap, shifts)
    bitmap.setflags(write=False)
    return bitmap


def render_glyph(
    char: str,
    canvas_size: int,
    style: GlyphStyle,
    rng: np.random.Generator,
    jitter: int = 1,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Render one noisy glyph sample onto a (canvas_size, canvas_size) canvas.

    The glyph is scaled, thickened, sheared, placed with a random
    ``jitter``-pixel offset around the center, then corrupted with
    Gaussian pixel noise.  Output values are clipped to [0, 1] and
    written to ``out`` (every element of it) when given.

    The draws from ``rng`` — two ``integers`` then one
    ``normal(size=canvas)`` — are the dataset's bytes: reordering or
    reshaping them changes every image rendered after.
    """
    scale = max(style.scale, 1)  # anything below 2 leaves the 7x5 bitmap as is
    glyph_h, glyph_w = 7 * scale, 5 * scale
    if glyph_h > canvas_size or glyph_w > canvas_size:
        raise DataError(
            f"glyph {glyph_h}x{glyph_w} does not fit canvas {canvas_size}"
        )
    bitmap = _styled_bitmap(
        char, style.thickness, scale, _row_shifts(glyph_h, style.shear)
    )
    top0 = (canvas_size - glyph_h) // 2
    left0 = (canvas_size - glyph_w) // 2
    top = min(max(top0 + int(rng.integers(-jitter, jitter + 1)), 0), canvas_size - glyph_h)
    left = min(max(left0 + int(rng.integers(-jitter, jitter + 1)), 0), canvas_size - glyph_w)
    # noise + glyph is glyph + noise bit for bit, and normal(0.0, s)
    # never yields -0.0, so starting from the noise array equals adding
    # it to a zero canvas that holds the glyph.
    canvas = rng.normal(0.0, style.noise, size=(canvas_size, canvas_size))
    canvas[top : top + glyph_h, left : left + glyph_w] += bitmap * style.intensity
    return canvas.clip(0.0, 1.0, out=canvas if out is None else out)


def stamp_glyphs(
    canvases: np.ndarray,
    chars: list[str],
    shears: np.ndarray,
    thicknesses: np.ndarray,
    intensities: np.ndarray,
    row_jitter: np.ndarray,
    col_jitter: np.ndarray,
) -> None:
    """Add one unscaled (7x5) glyph to each ``(s, s)`` canvas of a stack.

    The deterministic half of :func:`render_glyph` — style the bitmap,
    center it, move it by its jitter and keep it on the canvas, add
    ``bitmap * intensity`` — for ``n`` samples whose draws are already
    made, as one indexed add instead of ``n`` slice adds.  The same bytes:
    ``np.rint`` rounds a shear's row shifts half-to-even as ``round``
    does, and no two glyphs touch the same canvas.
    """
    count, size, _ = canvases.shape
    glyph_h, glyph_w = 7, 5
    if size < glyph_h:
        raise DataError(f"glyph {glyph_h}x{glyph_w} does not fit canvas {size}")
    shifts = np.rint(np.multiply.outer(shears, np.arange(float(glyph_h)))).astype(np.int64)
    bitmaps = np.stack([
        _styled_bitmap(char, thickness, 1, tuple(row_shifts))
        for char, thickness, row_shifts in zip(chars, thicknesses.tolist(), shifts.tolist())
    ])
    tops = np.clip((size - glyph_h) // 2 + row_jitter, 0, size - glyph_h)
    lefts = np.clip((size - glyph_w) // 2 + col_jitter, 0, size - glyph_w)
    rows = tops[:, None, None] + np.arange(glyph_h)[:, None]
    cols = lefts[:, None, None] + np.arange(glyph_w)
    canvases[np.arange(count)[:, None, None], rows, cols] += (
        bitmaps * intensities[:, None, None]
    )


def random_style(
    rng: np.random.Generator,
    canvas_size: int,
    noise: float = 0.1,
) -> GlyphStyle:
    """Draw a random writer style that is guaranteed to fit the canvas."""
    max_scale = max(1, min((canvas_size - 2) // 7, (canvas_size - 2) // 5))
    scale = int(rng.integers(1, max_scale + 1))
    return GlyphStyle(
        shear=float(rng.uniform(-0.4, 0.4)),
        thickness=int(rng.integers(0, 2)),
        scale=scale,
        intensity=float(rng.uniform(0.7, 1.0)),
        noise=noise,
    )
