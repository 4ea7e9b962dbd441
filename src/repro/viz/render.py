"""Scalar-field rasterization and the cluster-scale render cost model.

:func:`render_field` produces a real RGB image from a scalar field through a
camera (pan/zoom viewport) with bilinear resampling and optional contour
overlays — the "one set of images per timestep" of the paper's pipelines.
The overlay extracts every level's contours as arrays and rasterizes them all
in one batched :meth:`~repro.viz.image.Image.draw_polylines` call.

:class:`RenderCostModel` estimates what the same render costs at campaign
scale on a simulated cluster: per-cell rasterization work, binary-swap
compositing over the interconnect, and image encoding.  Its defaults are
calibrated so one 1920×1080 frame of the 60 km mesh on 150 nodes costs
≈1.2 s — the paper's measured β.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.viz.colormap import Colormap, okubo_weiss_colormap
from repro.viz.contour import marching_squares
from repro.viz.image import Image

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Interconnect

__all__ = ["Camera", "render_field", "render_okubo_weiss", "RenderCostModel", "ImageSpec"]


@dataclass(frozen=True)
class Camera:
    """A 2-D pan/zoom viewport onto a field.

    ``center`` is in normalized field coordinates (0..1 in each axis) and
    ``zoom`` is the magnification: the viewport covers ``1/zoom`` of the
    field in each axis.  Cinema databases sweep these parameters.
    """

    center: tuple[float, float] = (0.5, 0.5)
    zoom: float = 1.0

    def __post_init__(self) -> None:
        if self.zoom <= 0:
            raise ConfigurationError(f"zoom must be positive: {self.zoom}")
        cy, cx = self.center
        if not (0.0 <= cy <= 1.0 and 0.0 <= cx <= 1.0):
            raise ConfigurationError(f"camera center outside [0,1]²: {self.center}")

    def sample_coordinates(
        self, field_shape: tuple[int, int], width: int, height: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fractional field coordinates sampled by each output pixel."""
        ny, nx = field_shape
        cy, cx = self.center
        half_y = 0.5 / self.zoom
        half_x = 0.5 / self.zoom
        rows = (cy - half_y + (np.arange(height) + 0.5) / height / self.zoom) * ny - 0.5
        cols = (cx - half_x + (np.arange(width) + 0.5) / width / self.zoom) * nx - 0.5
        return np.meshgrid(rows, cols, indexing="ij")


@dataclass(frozen=True)
class ImageSpec:
    """Output image parameters for a pipeline."""

    width: int = 1920
    height: int = 1080
    cameras: tuple[Camera, ...] = (Camera(),)

    def __post_init__(self) -> None:
        if self.width < 8 or self.height < 8:
            raise ConfigurationError(f"image too small: {self.width}x{self.height}")
        if not self.cameras:
            raise ConfigurationError("need at least one camera")

    @property
    def pixels(self) -> int:
        """Pixels per frame."""
        return self.width * self.height

    @property
    def images_per_sample(self) -> int:
        """Frames rendered per output timestep (one per camera)."""
        return len(self.cameras)


def _bilinear(field: np.ndarray, rows: np.ndarray, cols: np.ndarray, periodic: bool) -> np.ndarray:
    ny, nx = field.shape
    if periodic:
        r0 = np.floor(rows).astype(int)
        c0 = np.floor(cols).astype(int)
        fr = rows - r0
        fc = cols - c0
        r0 %= ny
        c0 %= nx
        r1 = (r0 + 1) % ny
        c1 = (c0 + 1) % nx
    else:
        rows = np.clip(rows, 0, ny - 1)
        cols = np.clip(cols, 0, nx - 1)
        r0 = np.floor(rows).astype(int)
        c0 = np.floor(cols).astype(int)
        fr = rows - r0
        fc = cols - c0
        r1 = np.minimum(r0 + 1, ny - 1)
        c1 = np.minimum(c0 + 1, nx - 1)
    top = field[r0, c0] * (1 - fc) + field[r0, c1] * fc
    bot = field[r1, c0] * (1 - fc) + field[r1, c1] * fc
    return top * (1 - fr) + bot * fr


def render_field(
    field: np.ndarray,
    colormap: Colormap,
    width: int = 640,
    height: int = 360,
    camera: Optional[Camera] = None,
    vmin: Optional[float] = None,
    vmax: Optional[float] = None,
    contour_levels: Sequence[float] = (),
    contour_color: tuple[int, int, int] = (30, 30, 30),
    periodic: bool = True,
) -> Image:
    """Rasterize ``field`` into a ``width x height`` RGB image.

    The field is resampled bilinearly through ``camera``, colored through
    ``colormap``, and optionally overlaid with marching-squares contours.
    """
    field = np.asarray(field, dtype=float)
    if field.ndim != 2:
        raise ConfigurationError(f"field must be 2-D, got {field.shape}")
    cam = camera if camera is not None else Camera()
    rows, cols = cam.sample_coordinates(field.shape, width, height)
    resampled = _bilinear(field, rows, cols, periodic)
    image = Image(colormap.apply(resampled, vmin=vmin, vmax=vmax))
    # One color for every level, so one rasterization pass draws them all.
    image.draw_polylines(
        [line for level in contour_levels for line in marching_squares(resampled, level)],
        color=contour_color,
    )
    return image


def render_okubo_weiss(
    w: np.ndarray,
    width: int = 640,
    height: int = 360,
    camera: Optional[Camera] = None,
    outline_eddies: bool = True,
) -> Image:
    """Fig. 2-style rendering of an Okubo-Weiss field.

    Symmetric normalization around zero with the green/blue diverging map;
    optionally outlines eddy cores at the ``-0.2 σ_W`` level.
    """
    w = np.asarray(w, dtype=float)
    scale = 2.0 * float(np.std(w)) + 1e-30
    levels = (-0.2 * float(np.std(w)),) if outline_eddies else ()
    return render_field(
        w,
        okubo_weiss_colormap(),
        width=width,
        height=height,
        camera=camera,
        vmin=-scale,
        vmax=scale,
        contour_levels=levels,
    )


@dataclass(frozen=True)
class RenderCostModel:
    """Wall-time model of one campaign-scale render on a cluster.

    ``time = raster_ns_per_cell * n_cells / n_nodes        (data-parallel)
           + binary-swap composite over the interconnect   (image-sized)
           + encode_ns_per_pixel * pixels                  (root only)
           + fixed per-frame overhead``

    Defaults are calibrated so the paper's configuration (163,842 cells,
    1920×1080 frame, 150 nodes, QDR IB) costs ≈1.2 s — the measured β.
    """

    raster_ns_per_cell: float = 630_000.0
    encode_ns_per_pixel: float = 220.0
    fixed_overhead_s: float = 0.05

    def __post_init__(self) -> None:
        if min(self.raster_ns_per_cell, self.encode_ns_per_pixel) < 0:
            raise ConfigurationError("negative render cost coefficient")
        if self.fixed_overhead_s < 0:
            raise ConfigurationError("negative fixed overhead")

    def seconds_per_image(
        self,
        n_cells: int,
        spec: ImageSpec,
        n_nodes: int,
        interconnect: "Interconnect",
    ) -> float:
        """Wall seconds to render + composite + encode one frame."""
        if n_cells < 1 or n_nodes < 1:
            raise ConfigurationError("n_cells and n_nodes must be >= 1")
        raster = self.raster_ns_per_cell * 1e-9 * n_cells / n_nodes
        composite = interconnect.binary_swap_composite_time(spec.pixels * 3.0, n_nodes)
        encode = self.encode_ns_per_pixel * 1e-9 * spec.pixels
        return raster + composite + encode + self.fixed_overhead_s

    def seconds_per_sample(
        self,
        n_cells: int,
        spec: ImageSpec,
        n_nodes: int,
        interconnect: "Interconnect",
    ) -> float:
        """Wall seconds for the full image *set* of one output timestep."""
        return spec.images_per_sample * self.seconds_per_image(
            n_cells, spec, n_nodes, interconnect
        )
