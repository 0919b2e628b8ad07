"""Numerical check of the closed-form retraction of the punctured sector.

The region is the closed unit-disk sector bounded by the radial segments
OP and OQ, where P = (cos λ, sin λ) and Q = (−cos λ, sin λ) for a half-
angle 0 < λ < π/2, with the puncture N = (0, 1) removed from its arc.
The retraction r follows, for x0 ≠ 0, the circle through N centered on
the x-axis that passes through the point, down to its intersection with
OP (x0 > 0) or OQ (x0 < 0); points on the y-axis map to the origin.

With t = tan λ and
S = x0^4 + y0^4 + 2 x0^2 (2 t^2 + 1) + 2 y0^2 (x0^2 − 1) + 1,
both branches share the closed form

    u = (x0^2 + y0^2 + sqrt(S) − 1) / (2 x0 (t^2 + 1)),

and r(x0, y0) = (u, t·u) for x0 > 0, (u, −t·u) for x0 < 0 (the division
by the negative 2·x0 already makes u negative there). Transcription
note: published versions of the x0 < 0 branch sometimes carry a minus
sign on sqrt(S) and an extra sign flip in the ordinate; that variant
fails the segment fixed-point test (points of OQ would not be fixed),
so this module pins the branch above, which the fixed-point and
idempotence checks confirm.

verify_retraction checks r in one pass over a polar grid that holds one
row of samples at a time, so its memory does not depend on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetError, InputError, _integer

_VALIDATION_TOL = 1e-12
_AXIS_TOL = 1e-12
_CHECK_TOL = 1e-9
_PUNCTURE_RADIUS = 1e-6
_CONTINUITY_FACTOR = 50.0

#: Most grid×grid samples verify_retraction may check.
MAX_GRID_SAMPLES = 10**6


@dataclass(frozen=True)
class RetractionParams:
    half_angle: float  # λ, locating P = (cos λ, sin λ) and Q = (−cos λ, sin λ)

    def __post_init__(self):
        if not isinstance(self.half_angle, (int, float)):
            raise InputError(f"half-angle must be an int or float, got {self.half_angle!r}")
        if not 0.0 < self.half_angle < math.pi / 2:
            raise InputError(
                f"half-angle must lie strictly between 0 and π/2, got {self.half_angle}"
            )


def validate_region_point(params: RetractionParams, x0: float, y0: float) -> None:
    """Check membership in the closed punctured sector (tolerance 1e-12)."""
    if (x0, y0) == (0.0, 1.0):
        raise InputError("the puncture (0, 1) is not in the domain")
    r = math.hypot(x0, y0)
    if r > 1.0 + _VALIDATION_TOL:
        raise InputError(f"point ({x0}, {y0}) lies outside the unit disk")
    if r > _VALIDATION_TOL:
        theta = math.atan2(y0, x0)
        lam = params.half_angle
        if not (lam - _VALIDATION_TOL <= theta <= math.pi - lam + _VALIDATION_TOL):
            raise InputError(f"point ({x0}, {y0}) lies outside the sector")


def retract(params: RetractionParams, point: tuple[float, float]) -> tuple[float, float]:
    """Image of a region point on OP ∪ OQ under the retraction."""
    x0, y0 = point
    validate_region_point(params, x0, y0)
    return _closed_form(math.tan(params.half_angle), x0, y0)


def _closed_form(t: float, x0: float, y0: float) -> tuple[float, float]:
    """r(x0, y0) for t = tan λ, by the closed form above; no validation."""
    if abs(x0) < _AXIS_TOL:
        return (0.0, 0.0)
    s = (
        x0**4
        + y0**4
        + 2.0 * x0 * x0 * (2.0 * t * t + 1.0)
        + 2.0 * y0 * y0 * (x0 * x0 - 1.0)
        + 1.0
    )
    u = (x0 * x0 + y0 * y0 + math.sqrt(s) - 1.0) / (2.0 * x0 * (t * t + 1.0))
    return (u, t * u) if x0 > 0 else (u, -t * u)


def _segment_distance(point: tuple[float, float], end: tuple[float, float]) -> float:
    """Distance from point to the segment from the origin to `end`."""
    px, py = point
    ex, ey = end
    h = max(0.0, min(1.0, px * ex + py * ey))  # end has unit length
    return math.hypot(px - h * ex, py - h * ey)


def distance_to_target(params: RetractionParams, point: tuple[float, float]) -> float:
    """Distance from a point to OP ∪ OQ."""
    c, s = math.cos(params.half_angle), math.sin(params.half_angle)
    return min(_segment_distance(point, (c, s)), _segment_distance(point, (-c, s)))


@dataclass(frozen=True)
class RetractionReport:
    half_angle: float
    grid: int
    samples: int
    max_image_distance: float
    max_fixed_deviation: float
    false_fixed_points: int
    max_idempotence_deviation: float
    continuity_pairs: int
    continuity_violations: int
    max_continuity_ratio: float

    @property
    def on_target_ok(self) -> bool:
        return self.max_image_distance <= _CHECK_TOL

    @property
    def fixed_points_ok(self) -> bool:
        return self.max_fixed_deviation <= _CHECK_TOL and self.false_fixed_points == 0

    @property
    def idempotent_ok(self) -> bool:
        return self.max_idempotence_deviation <= _CHECK_TOL

    @property
    def continuity_ok(self) -> bool:
        return self.continuity_violations == 0

    @property
    def all_ok(self) -> bool:
        return (
            self.on_target_ok and self.fixed_points_ok
            and self.idempotent_ok and self.continuity_ok
        )


def verify_retraction(params: RetractionParams, grid: int) -> RetractionReport:
    """Sample the sector on a grid×grid polar grid and check the retraction.

    Checks (failures are reported, not raised): images lie on OP ∪ OQ;
    the fixed points are exactly the segment points; idempotence; and a
    continuity proxy bounding the image displacement of adjacent samples
    on the same side of the y-axis by 50× their spacing. Idempotence
    applies the closed form to each image as it is: rounding can leave an
    image just outside the disk, where retract would reject it as input.
    One pass over rows i (angle) and columns j (radius) compares each sample
    with (i − 1, j) and (i, j − 1) and keeps one row, so memory does not
    depend on the grid. Raises BudgetError, before sampling, when grid²
    exceeds MAX_GRID_SAMPLES.
    """
    grid = _integer(grid, "grid")
    if grid < 2:
        raise InputError("grid must be at least 2")
    if grid * grid > MAX_GRID_SAMPLES:
        raise BudgetError(f"grid {grid} needs grid² samples, past the budget of {MAX_GRID_SAMPLES}")
    lam = params.half_angle
    t = math.tan(lam)
    samples = false_fixed = pairs = violations = 0
    max_image_distance = max_fixed_deviation = max_idempotence = max_ratio = 0.0
    above: dict[int, tuple] = {}  # row i − 1 as column -> (point, image); none at the puncture
    for i in range(grid):
        theta = lam + i * (math.pi - 2.0 * lam) / (grid - 1)
        row: dict[int, tuple] = {}
        for j in range(grid):
            r = j / (grid - 1)
            p = (r * math.cos(theta), r * math.sin(theta))
            if math.hypot(p[0], p[1] - 1.0) <= _PUNCTURE_RADIUS:
                continue
            image = retract(params, p)
            samples += 1
            max_image_distance = max(max_image_distance, distance_to_target(params, image))
            moved = math.hypot(image[0] - p[0], image[1] - p[1])
            to_target = distance_to_target(params, p)
            if to_target <= _VALIDATION_TOL:
                max_fixed_deviation = max(max_fixed_deviation, moved)
            elif moved <= _CHECK_TOL and to_target > _PUNCTURE_RADIUS:
                false_fixed += 1
            twice = _closed_form(t, *image)
            idempotence = math.hypot(twice[0] - image[0], twice[1] - image[1])
            max_idempotence = max(max_idempotence, idempotence)
            for q, iq in filter(None, (above.get(j), row.get(j - 1))):
                spacing = math.hypot(p[0] - q[0], p[1] - q[1])
                if p[0] * q[0] <= 0.0 or spacing < 1e-15:  # across or on the y-axis, or one point
                    continue
                pairs += 1
                ratio = math.hypot(image[0] - iq[0], image[1] - iq[1]) / spacing
                max_ratio = max(max_ratio, ratio)
                if ratio > _CONTINUITY_FACTOR:
                    violations += 1
            row[j] = (p, image)
        above = row

    return RetractionReport(
        lam, grid, samples, max_image_distance, max_fixed_deviation, false_fixed,
        max_idempotence, pairs, violations, max_ratio,
    )


def report_pairs(report: RetractionReport) -> list[tuple[str, str]]:
    """Stable key/value lines for the CLI."""
    def fmt(x: float) -> str:
        return format(x, ".3e")

    status = lambda ok: "pass" if ok else "FAIL"  # noqa: E731
    return [
        ("lambda", format(report.half_angle, ".12g")),
        ("grid", str(report.grid)),
        ("samples", str(report.samples)),
        ("max image distance", fmt(report.max_image_distance)),
        ("max fixed deviation", fmt(report.max_fixed_deviation)),
        ("false fixed points", str(report.false_fixed_points)),
        ("max idempotence deviation", fmt(report.max_idempotence_deviation)),
        ("continuity pairs", str(report.continuity_pairs)),
        ("continuity violations", str(report.continuity_violations)),
        ("max continuity ratio", fmt(report.max_continuity_ratio)),
        ("check on-target", status(report.on_target_ok)),
        ("check fixed-points", status(report.fixed_points_ok)),
        ("check idempotence", status(report.idempotent_ok)),
        ("check continuity", status(report.continuity_ok)),
        ("result", "all checks passed" if report.all_ok else "FAILURES detected"),
    ]
