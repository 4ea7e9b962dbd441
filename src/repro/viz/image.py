"""RGB image buffers with a real PNG encoder/decoder.

The encoder writes standards-compliant 8-bit RGB PNG (signature, IHDR, IDAT
with zlib-compressed filtered scanlines, IEND) using per-row filter selection
between None(0) and Up(2) by the minimum-sum-of-absolute-differences
heuristic.  The decoder reads back any non-interlaced 8-bit RGB/RGBA PNG with
the full set of filter types (0–4), which covers everything this library and
most external writers produce.

Contour overlays are drawn by :meth:`Image.draw_polylines`, which rasterizes
every segment of every polyline in one batched pass, sampling each segment at
exactly the points ``np.linspace`` would.

Real image bytes matter here: in-situ storage volumes (the "<1 GB" of the
paper's Fig. 7) come from actually encoding the rendered frames.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError, FileFormatError

__all__ = ["Image", "png_encode", "png_decode"]

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def png_encode(pixels: np.ndarray, compress_level: int = 6) -> bytes:
    """Encode an ``(H, W, 3) uint8`` array as a PNG byte string."""
    pixels = np.asarray(pixels)
    if pixels.ndim != 3 or pixels.shape[2] != 3 or pixels.dtype != np.uint8:
        raise ConfigurationError(
            f"png_encode needs (H, W, 3) uint8, got {pixels.shape} {pixels.dtype}"
        )
    h, w, _ = pixels.shape
    if h < 1 or w < 1:
        raise ConfigurationError(f"degenerate image {w}x{h}")
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # 8-bit, color type 2 (RGB)
    # Filter selection per row: None (0) vs Up (2), by minimum absolute sum.
    raw = pixels.reshape(h, w * 3).astype(np.int16)
    up = raw - np.vstack([np.zeros((1, w * 3), dtype=np.int16), raw[:-1]])
    none_cost = np.abs(((raw + 128) % 256) - 128).sum(axis=1)
    up_cost = np.abs(((up + 128) % 256) - 128).sum(axis=1)
    # Up only when strictly cheaper; ties keep None.
    use_up = (up_cost < none_cost)[:, None]
    rows = np.empty((h, 1 + w * 3), dtype=np.uint8)
    rows[:, :1] = np.where(use_up, 2, 0)
    rows[:, 1:] = np.where(use_up, up, raw) % 256
    idat = zlib.compress(rows.tobytes(), compress_level)
    return (
        _PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def _iter_chunks(data: bytes) -> Iterable[tuple[bytes, bytes]]:
    pos = len(_PNG_SIGNATURE)
    while pos < len(data):
        if pos + 8 > len(data):
            raise FileFormatError("truncated PNG chunk header")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if len(payload) != length:
            raise FileFormatError(f"truncated PNG chunk {tag!r}")
        crc = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])[0]
        if crc != (zlib.crc32(tag + payload) & 0xFFFFFFFF):
            raise FileFormatError(f"bad CRC in PNG chunk {tag!r}")
        yield tag, payload
        pos += 12 + length


def _unfilter(rows: np.ndarray, filters: np.ndarray, bpp: int) -> np.ndarray:
    """Undo PNG per-row filtering in place on an int16 working copy."""
    h, stride = rows.shape
    out = np.zeros((h, stride), dtype=np.uint8)
    for y in range(h):
        line = rows[y].astype(np.int32)
        ftype = int(filters[y])
        prev = out[y - 1].astype(np.int32) if y > 0 else np.zeros(stride, dtype=np.int32)
        if ftype == 0:
            out[y] = line % 256
        elif ftype == 2:  # Up
            out[y] = (line + prev) % 256
        elif ftype in (1, 3, 4):  # Sub / Average / Paeth need a left-to-right scan
            cur = np.zeros(stride, dtype=np.int32)
            for x in range(stride):
                a = cur[x - bpp] if x >= bpp else 0
                b = prev[x]
                c = prev[x - bpp] if x >= bpp else 0
                if ftype == 1:
                    pred = a
                elif ftype == 3:
                    pred = (a + b) // 2
                else:
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                cur[x] = (line[x] + pred) % 256
            out[y] = cur
        else:
            raise FileFormatError(f"unsupported PNG filter type {ftype}")
    return out


def png_decode(data: bytes) -> np.ndarray:
    """Decode a non-interlaced 8-bit RGB/RGBA PNG into ``(H, W, 3) uint8``."""
    if not data.startswith(_PNG_SIGNATURE):
        raise FileFormatError("not a PNG stream (bad signature)")
    width = height = None
    channels = 3
    idat = bytearray()
    for tag, payload in _iter_chunks(data):
        if tag == b"IHDR":
            width, height, depth, ctype, _comp, _filt, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if depth != 8 or ctype not in (2, 6) or interlace != 0:
                raise FileFormatError(
                    f"unsupported PNG: depth={depth} colortype={ctype} interlace={interlace}"
                )
            channels = 3 if ctype == 2 else 4
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    if width is None:
        raise FileFormatError("PNG missing IHDR")
    decompressed = zlib.decompress(bytes(idat))
    stride = width * channels
    expected = height * (stride + 1)
    if len(decompressed) != expected:
        raise FileFormatError(
            f"PNG pixel data length {len(decompressed)} != expected {expected}"
        )
    flat = np.frombuffer(decompressed, dtype=np.uint8).reshape(height, stride + 1)
    filters = flat[:, 0]
    rows = flat[:, 1:]
    pixels = _unfilter(rows, filters, channels).reshape(height, width, channels)
    return np.ascontiguousarray(pixels[:, :, :3])


class Image:
    """An ``(H, W, 3) uint8`` RGB image with drawing and PNG I/O helpers."""

    def __init__(self, pixels: np.ndarray) -> None:
        pixels = np.asarray(pixels)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ConfigurationError(f"Image needs (H, W, 3), got {pixels.shape}")
        self.pixels = pixels.astype(np.uint8, copy=False)

    @classmethod
    def blank(cls, width: int, height: int, color: tuple[int, int, int] = (0, 0, 0)) -> "Image":
        """A solid-color image."""
        if width < 1 or height < 1:
            raise ConfigurationError(f"degenerate image {width}x{height}")
        px = np.empty((height, width, 3), dtype=np.uint8)
        px[:] = color
        return cls(px)

    @property
    def width(self) -> int:
        """Image width in pixels."""
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        """Image height in pixels."""
        return self.pixels.shape[0]

    def draw_polyline(
        self, points: np.ndarray, color: tuple[int, int, int] = (0, 0, 0)
    ) -> None:
        """Rasterize one polyline of ``(row, col)`` float vertices."""
        self.draw_polylines([points], color)

    def draw_polylines(
        self, lines: Iterable[np.ndarray], color: tuple[int, int, int] = (0, 0, 0)
    ) -> None:
        """Rasterize every segment of every polyline in one pass.

        A segment from ``p0`` to ``p1`` is sampled at
        ``n = trunc(max(|p1 - p0|, 1)) + 1`` points spaced exactly as
        ``np.linspace(p0, p1, n)`` spaces them per coordinate: ``k * step +
        p0`` (``k / (n - 1) * (p1 - p0) + p0`` where ``step`` is 0), with the
        last point at ``p1``.  Samples round half to even to pixels; those
        outside the image are dropped.  Lines that are not ``(n >= 2, 2)``
        arrays are skipped; a non-finite vertex raises ConfigurationError.
        """
        arrays = [np.asarray(line, dtype=float) for line in lines]
        drawn = [
            i for i, pts in enumerate(arrays)
            if pts.ndim == 2 and pts.shape[1] == 2 and pts.shape[0] >= 2
        ]
        polylines = [arrays[i] for i in drawn]
        if not polylines:
            return
        vertices = np.concatenate(polylines)
        line_ends = np.cumsum([len(pts) for pts in polylines])
        finite = np.isfinite(vertices).all(axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            line = int(np.searchsorted(line_ends, bad, side="right"))
            vertex = bad - (int(line_ends[line - 1]) if line else 0)
            raise ConfigurationError(
                f"polyline {drawn[line]} has a non-finite vertex {vertex}: "
                f"{tuple(vertices[bad].tolist())}"
            )
        # Every vertex but each polyline's last starts a segment.
        starts = np.delete(np.arange(len(vertices)), line_ends - 1)
        p0, p1 = vertices[starts], vertices[starts + 1]
        delta = p1 - p0
        n = np.maximum(np.abs(delta).max(axis=1), 1.0).astype(np.int64) + 1
        div = (n - 1).astype(float)[:, None]
        step = delta / div
        seg = np.repeat(np.arange(len(n)), n)
        sample_ends = np.cumsum(n)
        k = (np.arange(sample_ends[-1]) - (sample_ends - n)[seg]).astype(float)[:, None]
        samples = np.where(
            step[seg] == 0, k / div[seg] * delta[seg], k * step[seg]
        ) + p0[seg]
        samples[sample_ends - 1] = p1
        rr, cc = np.rint(samples).astype(int).T
        ok = (rr >= 0) & (rr < self.height) & (cc >= 0) & (cc < self.width)
        self.pixels[rr[ok], cc[ok]] = color

    def encode_png(self, compress_level: int = 6) -> bytes:
        """PNG byte string of this image."""
        return png_encode(self.pixels, compress_level)

    @classmethod
    def decode_png(cls, data: bytes) -> "Image":
        """Image from a PNG byte string."""
        return cls(png_decode(data))

    def save(self, path: str) -> int:
        """Write the image as PNG; returns the byte count written."""
        data = self.encode_png()
        with open(path, "wb") as fh:
            fh.write(data)
        return len(data)

    @classmethod
    def load(cls, path: str) -> "Image":
        """Read a PNG from disk."""
        with open(path, "rb") as fh:
            return cls.decode_png(fh.read())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Image {self.width}x{self.height}>"
