"""Tests for the image buffer, PNG codec and colormaps."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, FileFormatError
from repro.viz.colormap import (
    Colormap,
    grayscale_colormap,
    ocean_speed_colormap,
    okubo_weiss_colormap,
)
from repro.viz.image import Image, png_decode, png_encode


class TestColormap:
    def test_lut_endpoints(self):
        cm = grayscale_colormap()
        assert cm.color_at(0.0) == (0, 0, 0)
        assert cm.color_at(1.0) == (255, 255, 255)

    def test_midpoint_interpolation(self):
        cm = grayscale_colormap()
        assert cm.color_at(0.5) == (128, 128, 128)

    def test_apply_shape_and_dtype(self):
        cm = grayscale_colormap()
        rgb = cm.apply(np.linspace(0, 1, 12).reshape(3, 4))
        assert rgb.shape == (3, 4, 3)
        assert rgb.dtype == np.uint8

    def test_apply_respects_vmin_vmax(self):
        cm = grayscale_colormap()
        field = np.array([[-1.0, 0.0, 1.0]])
        rgb = cm.apply(field, vmin=-1.0, vmax=1.0)
        assert tuple(rgb[0, 0]) == (0, 0, 0)
        assert tuple(rgb[0, 2]) == (255, 255, 255)
        assert tuple(rgb[0, 1]) in ((127, 127, 127), (128, 128, 128))

    def test_apply_clips_out_of_range(self):
        cm = grayscale_colormap()
        rgb = cm.apply(np.array([[-100.0, 100.0]]), vmin=0.0, vmax=1.0)
        assert tuple(rgb[0, 0]) == (0, 0, 0)
        assert tuple(rgb[0, 1]) == (255, 255, 255)

    def test_constant_field_does_not_crash(self):
        cm = grayscale_colormap()
        rgb = cm.apply(np.full((4, 4), 3.0))
        assert (rgb == rgb[0, 0]).all()

    def test_okubo_weiss_palette_direction(self):
        """Negative W (rotation) is green; positive W (shear) is blue."""
        cm = okubo_weiss_colormap()
        r, g, b = cm.color_at(0.05)   # strongly negative end
        assert g > r and g > b
        r, g, b = cm.color_at(0.95)   # strongly positive end
        assert b > r and b > g

    def test_ocean_speed_is_monotone_brightness(self):
        cm = ocean_speed_colormap()
        lum = cm.lut.astype(float).sum(axis=1)
        assert (np.diff(lum) >= -1e-9).all()

    def test_control_point_validation(self):
        with pytest.raises(ConfigurationError):
            Colormap([(0.0, (0, 0, 0))])  # one point
        with pytest.raises(ConfigurationError):
            Colormap([(0.1, (0, 0, 0)), (1.0, (1, 1, 1))])  # no 0.0 anchor
        with pytest.raises(ConfigurationError):
            Colormap([(0.0, (0, 0, 0)), (1.0, (256, 0, 0))])  # bad channel
        with pytest.raises(ConfigurationError):
            Colormap([(0.5, (0, 0, 0)), (0.2, (0, 0, 0))])  # unsorted

    def test_color_at_out_of_range(self):
        with pytest.raises(ConfigurationError):
            grayscale_colormap().color_at(1.5)


class TestPngCodec:
    def _random_image(self, w, h, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)

    def test_round_trip_random(self):
        px = self._random_image(37, 23)
        np.testing.assert_array_equal(png_decode(png_encode(px)), px)

    def test_round_trip_smooth(self):
        """Smooth gradients exercise the Up filter path."""
        y, x = np.mgrid[0:50, 0:80]
        px = np.stack([x % 256, y % 256, (x + y) % 256], axis=2).astype(np.uint8)
        np.testing.assert_array_equal(png_decode(png_encode(px)), px)

    def test_signature_present(self):
        data = png_encode(self._random_image(8, 8))
        assert data.startswith(b"\x89PNG\r\n\x1a\n")
        assert b"IHDR" in data and b"IDAT" in data and b"IEND" in data

    def test_smooth_compresses_better_than_noise(self):
        noise = png_encode(self._random_image(64, 64))
        smooth = png_encode(np.full((64, 64, 3), 37, dtype=np.uint8))
        assert len(smooth) < len(noise) / 4

    def test_1x1_image(self):
        px = np.array([[[1, 2, 3]]], dtype=np.uint8)
        np.testing.assert_array_equal(png_decode(png_encode(px)), px)

    def test_bad_dtype_rejected(self):
        with pytest.raises(ConfigurationError):
            png_encode(np.zeros((4, 4, 3), dtype=np.float64))

    def test_bad_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            png_encode(np.zeros((4, 4), dtype=np.uint8))

    def test_decode_garbage_rejected(self):
        with pytest.raises(FileFormatError):
            png_decode(b"not a png at all")

    def test_decode_corrupt_crc_rejected(self):
        data = bytearray(png_encode(self._random_image(8, 8)))
        data[-10] ^= 0xFF  # flip a byte inside IEND/IDAT region
        with pytest.raises(FileFormatError):
            png_decode(bytes(data))

    def test_decode_truncated_rejected(self):
        data = png_encode(self._random_image(8, 8))
        with pytest.raises(FileFormatError):
            png_decode(data[: len(data) // 2])

    def test_decode_all_filter_types(self):
        """Decoder handles Sub/Average/Paeth rows from external writers."""
        h, w = 4, 5
        rng = np.random.default_rng(1)
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        # Hand-roll an encoding using filter types 1, 3, 4, 0 per row.
        import struct

        def chunk(tag, payload):
            return (
                struct.pack(">I", len(payload)) + tag + payload
                + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
            )

        rows = bytearray()
        prev = np.zeros(w * 3, dtype=np.int32)
        filters = [1, 3, 4, 0]
        for y in range(h):
            raw = px[y].reshape(-1).astype(np.int32)
            f = filters[y]
            rows.append(f)
            cur = np.zeros(w * 3, dtype=np.int32)
            for i in range(w * 3):
                a = raw[i - 3] if i >= 3 else 0
                b = prev[i]
                c = prev[i - 3] if i >= 3 else 0
                if f == 0:
                    pred = 0
                elif f == 1:
                    pred = a
                elif f == 3:
                    pred = (a + b) // 2
                else:
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                cur[i] = (raw[i] - pred) % 256
            rows.extend(cur.astype(np.uint8).tobytes())
            prev = raw
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        data = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(rows)))
            + chunk(b"IEND", b"")
        )
        np.testing.assert_array_equal(png_decode(data), px)

    @settings(deadline=None, max_examples=20)
    @given(
        w=st.integers(min_value=1, max_value=40),
        h=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_round_trip_property(self, w, h, seed):
        rng = np.random.default_rng(seed)
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        np.testing.assert_array_equal(png_decode(png_encode(px)), px)


class TestImage:
    def test_blank(self):
        img = Image.blank(10, 5, color=(1, 2, 3))
        assert img.width == 10 and img.height == 5
        assert tuple(img.pixels[0, 0]) == (1, 2, 3)

    def test_degenerate_blank_rejected(self):
        with pytest.raises(ConfigurationError):
            Image.blank(0, 5)

    def test_equality(self):
        a = Image.blank(4, 4, (9, 9, 9))
        b = Image.blank(4, 4, (9, 9, 9))
        c = Image.blank(4, 4, (0, 0, 0))
        assert a == b
        assert a != c

    def test_draw_polyline(self):
        img = Image.blank(20, 20)
        img.draw_polyline(np.array([[0.0, 0.0], [19.0, 19.0]]), color=(255, 0, 0))
        assert tuple(img.pixels[0, 0]) == (255, 0, 0)
        assert tuple(img.pixels[19, 19]) == (255, 0, 0)
        assert tuple(img.pixels[10, 10]) == (255, 0, 0)

    def test_draw_polyline_clips_outside(self):
        img = Image.blank(10, 10)
        img.draw_polyline(np.array([[-5.0, 5.0], [30.0, 5.0]]), color=(255, 0, 0))
        # Must not raise; some in-bounds pixels are set.
        assert (img.pixels != 0).any()

    def test_draw_degenerate_polyline_noop(self):
        img = Image.blank(10, 10)
        img.draw_polyline(np.zeros((1, 2)))
        assert (img.pixels == 0).all()

    def test_segment_ends_exactly_on_its_stop_vertex(self):
        # 6 steps of (6.5 - 0.2) / 6 from 0.2 land on 6.500000000000001,
        # which would round to row 7; the last sample is the stop itself,
        # 6.5, which rounds half to even to row 6.
        img = Image.blank(3, 10)
        img.draw_polyline(np.array([[0.2, 1.0], [6.5, 1.0]]), color=(255, 0, 0))
        rows = np.flatnonzero(img.pixels[:, 1, 0] == 255)
        assert rows.tolist() == [0, 1, 2, 3, 4, 5, 6]

    def test_draw_polylines_draws_every_line(self):
        img = Image.blank(10, 10)
        img.draw_polylines(
            [np.array([[0.0, 0.0], [0.0, 9.0]]), np.zeros((1, 2)),
             np.array([[9.0, 0.0], [9.0, 9.0]])],
            color=(0, 255, 0),
        )
        assert (img.pixels[0, :, 1] == 255).all() and (img.pixels[9, :, 1] == 255).all()
        assert (img.pixels[1:9] == 0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected(self, bad):
        img = Image.blank(10, 10)
        with pytest.raises(ConfigurationError, match=r"polyline 0 has a non-finite vertex 1"):
            img.draw_polyline(np.array([[0.0, 0.0], [bad, 3.0], [5.0, 5.0]]))
        with pytest.raises(ConfigurationError, match=r"polyline 2 has a non-finite vertex 0"):
            img.draw_polylines(
                [np.array([[0.0, 0.0], [1.0, 1.0]]), np.zeros((1, 2)),
                 np.array([[2.0, bad], [3.0, 3.0]])]
            )
        assert (img.pixels == 0).all()

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = Image(rng.integers(0, 256, size=(12, 9, 3), dtype=np.uint8))
        path = str(tmp_path / "img.png")
        nbytes = img.save(path)
        assert nbytes == (tmp_path / "img.png").stat().st_size
        assert Image.load(path) == img
