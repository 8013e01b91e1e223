"""Glyph renderer tests."""

import numpy as np
import pytest

from repro.data.glyphs import (
    GLYPH_SET,
    GlyphStyle,
    glyph_bitmap,
    random_style,
    render_glyph,
    _dilate,
    _row_shifts,
    _shift_rows,
    _styled_bitmap,
)
from repro.exceptions import DataError


def test_all_glyphs_have_bitmaps():
    for char in GLYPH_SET:
        bmp = glyph_bitmap(char)
        assert bmp.shape == (7, 5)
        assert bmp.sum() > 0


def test_unknown_glyph_raises():
    with pytest.raises(DataError):
        glyph_bitmap("?")


def test_glyphs_are_distinct():
    flat = {char: glyph_bitmap(char).tobytes() for char in GLYPH_SET}
    assert len(set(flat.values())) == len(GLYPH_SET)


def test_dilate_thickens():
    bmp = glyph_bitmap("1")
    assert _dilate(bmp).sum() > bmp.sum()


def test_shear_shifts_rows():
    img = np.zeros((4, 6))
    img[:, 2] = 1.0
    sheared = _shift_rows(img, _row_shifts(img.shape[0], 1.0))
    for row in range(4):
        assert sheared[row, 2 + row] == 1.0


def test_render_shape_and_range(rng):
    style = GlyphStyle(noise=0.2)
    img = render_glyph("5", 12, style, rng)
    assert img.shape == (12, 12)
    assert img.min() >= 0.0 and img.max() <= 1.0


def test_render_noise_free_is_clean(rng):
    style = GlyphStyle(noise=0.0, intensity=1.0)
    img = render_glyph("8", 12, style, rng, jitter=0)
    values = np.unique(img)
    assert set(values).issubset({0.0, 1.0})


def test_render_too_big_glyph_raises(rng):
    style = GlyphStyle(scale=3)
    with pytest.raises(DataError):
        render_glyph("0", 12, style, rng)  # 21x15 > 12


def test_random_style_fits_canvas(rng):
    for _ in range(30):
        style = random_style(rng, canvas_size=12)
        render_glyph("W", 12, style, rng)  # must not raise


def test_same_style_same_seed_is_deterministic():
    style = GlyphStyle(shear=0.1, thickness=1, noise=0.1)
    a = render_glyph("3", 12, style, np.random.default_rng(5))
    b = render_glyph("3", 12, style, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_glyph_bitmap_is_shared_and_read_only():
    bmp = glyph_bitmap("7")
    assert glyph_bitmap("7") is bmp  # parsed once, not per call
    before = bmp.copy()
    with pytest.raises(ValueError):
        bmp[0, 0] = 0.5
    with pytest.raises(ValueError):
        bmp += 1.0
    np.testing.assert_array_equal(glyph_bitmap("7"), before)


def test_render_never_aliases_the_memo(rng):
    style = GlyphStyle(shear=0.3, thickness=1, noise=0.0)
    shifts = _row_shifts(7, style.shear)
    first = render_glyph("4", 12, style, rng, jitter=0)
    memo = _styled_bitmap("4", style.thickness, style.scale, shifts)
    assert not memo.flags.writeable
    assert not np.shares_memory(first, memo)
    pristine = memo.copy()
    first[:] = 0.25  # a caller scribbling on its image...
    np.testing.assert_array_equal(memo, pristine)  # ...leaves the font alone
    again = render_glyph("4", 12, style, rng, jitter=0)
    assert again.max() == 1.0 and 0.25 not in again


def test_render_into_out_overwrites_every_pixel():
    style = GlyphStyle(shear=-0.2, thickness=1, noise=0.1)
    fresh = render_glyph("6", 12, style, np.random.default_rng(3))
    out = np.full((2, 12, 12), 7.0)
    returned = render_glyph("6", 12, style, np.random.default_rng(3), out=out[1])
    assert returned is not fresh and np.shares_memory(returned, out)
    np.testing.assert_array_equal(out[1], fresh)
    assert (out[0] == 7.0).all()


def test_styled_bitmap_matches_the_step_by_step_pipeline():
    """The memo's entries are exactly parse -> dilate -> kron -> shear."""
    for char, thickness, scale, shear in [
        ("2", 0, 1, 0.0), ("9", 1, 1, 0.15), ("W", 1, 2, -0.4), ("Q", 0, 3, 0.37),
    ]:
        expected = glyph_bitmap(char)
        for _ in range(thickness):
            expected = _dilate(expected)
        if scale > 1:
            expected = np.kron(expected, np.ones((scale, scale)))
        if shear:
            expected = _shift_rows(expected, _row_shifts(expected.shape[0], shear))
        got = _styled_bitmap(char, thickness, scale, _row_shifts(7 * scale, shear))
        np.testing.assert_array_equal(got, expected)


def test_memo_is_bounded_under_many_writers():
    """FEMNIST renders writers x chars distinct styles; the memo must
    evict rather than grow with the corpus."""
    _styled_bitmap.cache_clear()
    rng = np.random.default_rng(0)
    limit = _styled_bitmap.cache_info().maxsize
    assert limit is not None and limit <= 4096
    distinct = set()
    while len(distinct) <= 2 * limit:
        style = random_style(rng, canvas_size=40)  # scales 1..5
        for char in GLYPH_SET:
            render_glyph(char, 40, style, rng)
            distinct.add((char, style.thickness, style.scale,
                          _row_shifts(7 * style.scale, style.shear)))
    assert _styled_bitmap.cache_info().currsize <= limit
    # Eviction only ever forces a rebuild: an evicted style renders the same.
    style = GlyphStyle(shear=0.1, thickness=1)
    a = render_glyph("3", 12, style, np.random.default_rng(5))
    _styled_bitmap.cache_clear()
    b = render_glyph("3", 12, style, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
