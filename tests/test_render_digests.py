"""Pinned bytes of the renderer and the contour extractor.

``render_okubo_weiss`` and ``render_field`` must produce exactly the PNG
bytes pinned here for a handful of seeded fields, and ``marching_squares``
exactly the pinned polylines (lengths and vertex bytes).  The cases cover
the default camera, a zoomed off-center camera, ``periodic=False``, a grid
whose values hit the contour levels exactly (the epsilon nudge) and a
saddle-heavy checkerboard.  The benchmark's golden digests cover whole
output trees; a failure here names the function that changed.  A
deliberate change of the rendered pixels re-pins these digests in the same
commit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.viz.colormap import grayscale_colormap, ocean_speed_colormap
from repro.viz.contour import marching_squares
from repro.viz.render import Camera, render_field, render_okubo_weiss


def _waves(seed: int, ny: int, nx: int) -> np.ndarray:
    """A smooth periodic field: a few random plane waves."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:ny, 0:nx].astype(float)
    field = np.zeros((ny, nx))
    for _ in range(5):
        ky, kx = rng.integers(1, 4, size=2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        field += rng.uniform(0.5, 1.5) * np.sin(
            2.0 * np.pi * (ky * y / ny + kx * x / nx) + phase
        )
    return field


def _integers(seed: int) -> np.ndarray:
    """Small integer-valued grid: contour levels hit vertices exactly."""
    return np.random.default_rng(seed).integers(0, 5, size=(24, 32)).astype(float)


def _checkerboard(seed: int) -> np.ndarray:
    """Alternating signs with jitter: nearly every cell is a saddle."""
    rng = np.random.default_rng(seed)
    i, j = np.mgrid[0:20, 0:26]
    sign = np.where((i + j) % 2 == 0, 1.0, -1.0)
    return sign * rng.uniform(0.5, 1.5, size=sign.shape) + rng.normal(0.0, 0.3, size=sign.shape)


FIELDS = {
    "waves-3": _waves(3, 36, 72),
    "waves-11": _waves(11, 48, 48),
    "integers-5": _integers(5),
    "checkerboard-7": _checkerboard(7),
}

RENDERS = {
    "okubo-default": lambda: render_okubo_weiss(FIELDS["waves-3"], width=160, height=80),
    "okubo-zoomed": lambda: render_okubo_weiss(
        FIELDS["waves-11"], width=120, height=96, camera=Camera(center=(0.3, 0.65), zoom=2.5)
    ),
    "field-nonperiodic": lambda: render_field(
        FIELDS["waves-3"],
        grayscale_colormap(),
        width=100,
        height=70,
        contour_levels=(-0.5, 0.0, 0.7),
        contour_color=(200, 40, 40),
        periodic=False,
    ),
    # 1:1 sampling keeps the integer values, so every level is hit exactly.
    "field-exact-hits": lambda: render_field(
        FIELDS["integers-5"],
        ocean_speed_colormap(),
        width=32,
        height=24,
        contour_levels=(1.0, 2.0, 3.0),
    ),
    "field-checkerboard": lambda: render_field(
        FIELDS["checkerboard-7"],
        grayscale_colormap(),
        width=78,
        height=60,
        contour_levels=(0.0,),
        periodic=False,
    ),
}

CONTOURS = {
    "waves-3@-0.5": ("waves-3", -0.5),
    "waves-3@0.7": ("waves-3", 0.7),
    "waves-11@0.0": ("waves-11", 0.0),
    "integers-5@2.0": ("integers-5", 2.0),
    "integers-5@4.0": ("integers-5", 4.0),
    "checkerboard-7@0.0": ("checkerboard-7", 0.0),
}

PINNED_PNG = {
    "okubo-default": "adc963e0c7877f82974c434e16f1a7a17c65db618c71f55aee909f88bebb7565",
    "okubo-zoomed": "321cc426ed7ddbd7c149e7c7dac3473979d0a3053e7cedc1286d214ea06060a4",
    "field-nonperiodic": "c520f2db15ca6610e9226f20859f56364418fc3853e665b56e16a89097119426",
    "field-exact-hits": "d9d5750e9cc18118e67909c3e71a54b99f79e8c82470d955581f6b677a3ad5ec",
    "field-checkerboard": "cceae197057a22384956a044ed5d11d13ed9e01d32eb5dba5afe638090d63d2f",
}

PINNED_CONTOURS = {
    "waves-3@-0.5": "fd33dac5a661a5507ed38a65ef580842fea4368f643f26c4a64aa23ce6938b58",
    "waves-3@0.7": "27d96622508fdced8cd4460dc31aeb77e5739cdd383095ceec70d62eac5a7bf0",
    "waves-11@0.0": "45dbf29a6b19e4fa32b77a64fd64f005edee49500d6a4edbd4cf00735c5d488d",
    "integers-5@2.0": "a7d1aa667143ea999d79444dea5e7dc10ebceb0ca63b53fcd9d9adcb3666b7d8",
    "integers-5@4.0": "388dc26115de7dfd55ac6256f5fb3d55a3fbd73287b1c4b6ae699d25ab483475",
    "checkerboard-7@0.0": "9b23a04fd31bc33b05d10300d06bb810b4634b1b03bab0297af79644c1edda09",
}


def _contour_digest(lines: list[np.ndarray]) -> str:
    lengths = np.array([len(line) for line in lines], dtype=np.int64)
    return hashlib.sha256(lengths.tobytes() + np.concatenate(lines).tobytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(RENDERS))
def test_render_png_bytes_are_pinned(case):
    png = RENDERS[case]().encode_png()
    assert hashlib.sha256(png).hexdigest() == PINNED_PNG[case]


@pytest.mark.parametrize("case", sorted(CONTOURS))
def test_marching_squares_output_is_pinned(case):
    name, level = CONTOURS[case]
    lines = marching_squares(FIELDS[name], level)
    assert lines
    assert _contour_digest(lines) == PINNED_CONTOURS[case]
