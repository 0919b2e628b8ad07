import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from knotgrp import geometry
from knotgrp.errors import BudgetError, InputError
from knotgrp.geometry import (
    RetractionParams,
    RetractionReport,
    distance_to_target,
    report_pairs,
    retract,
    validate_region_point,
    verify_retraction,
)


def dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


def reference_verify_retraction(params, grid):
    """verify_retraction as it was before its one-pass rewrite: every sample
    and image stored in a dict keyed by (i, j), then checked in two more
    passes. Kept as the oracle the one-pass version must match exactly."""
    lam = params.half_angle
    t = math.tan(lam)
    points = {}
    for i in range(grid):
        theta = lam + i * (math.pi - 2.0 * lam) / (grid - 1)
        for j in range(grid):
            r = j / (grid - 1)
            p = (r * math.cos(theta), r * math.sin(theta))
            if math.hypot(p[0], p[1] - 1.0) <= geometry._PUNCTURE_RADIUS:
                continue
            points[(i, j)] = p

    images = {key: retract(params, p) for key, p in points.items()}

    max_image_distance = 0.0
    max_fixed_deviation = 0.0
    false_fixed = 0
    max_idempotence = 0.0
    for key, p in points.items():
        image = images[key]
        max_image_distance = max(max_image_distance, distance_to_target(params, image))
        moved = math.hypot(image[0] - p[0], image[1] - p[1])
        on_segments = distance_to_target(params, p) <= geometry._VALIDATION_TOL
        if on_segments:
            max_fixed_deviation = max(max_fixed_deviation, moved)
        elif (
            moved <= geometry._CHECK_TOL
            and distance_to_target(params, p) > geometry._PUNCTURE_RADIUS
        ):
            false_fixed += 1
        twice = geometry._closed_form(t, *image)
        max_idempotence = max(
            max_idempotence, math.hypot(twice[0] - image[0], twice[1] - image[1])
        )

    pairs = 0
    violations = 0
    max_ratio = 0.0
    for (i, j), p in points.items():
        for key2 in ((i + 1, j), (i, j + 1)):
            q = points.get(key2)
            if q is None:
                continue
            if p[0] * q[0] <= 0.0:  # different sides of (or on) the y-axis
                continue
            spacing = math.hypot(p[0] - q[0], p[1] - q[1])
            if spacing < 1e-15:
                continue
            pairs += 1
            ip, iq = images[(i, j)], images[key2]
            ratio = math.hypot(ip[0] - iq[0], ip[1] - iq[1]) / spacing
            max_ratio = max(max_ratio, ratio)
            if ratio > geometry._CONTINUITY_FACTOR:
                violations += 1

    return RetractionReport(
        half_angle=lam,
        grid=grid,
        samples=len(points),
        max_image_distance=max_image_distance,
        max_fixed_deviation=max_fixed_deviation,
        false_fixed_points=false_fixed,
        max_idempotence_deviation=max_idempotence,
        continuity_pairs=pairs,
        continuity_violations=violations,
        max_continuity_ratio=max_ratio,
    )


_rng = random.Random(26)
# the three benchmark cases, a half-angle where rounding leaves images
# outside the disk, both ends of the half-angle range, the two smallest
# grids, then seeded random cases
REFERENCE_CASES = [
    (0.5, 64), (1.0, 160), (0.7854, 64), (1.5, 256), (1.5, 64), (0.01, 50),
    (1.57, 100), (math.pi / 6, 2), (1.0, 3),
] + [(_rng.uniform(1e-3, math.pi / 2 - 1e-3), _rng.randint(2, 120)) for _ in range(40)]


class TestParams:
    def test_half_angle_bounds(self):
        RetractionParams(0.1)
        for bad in (0.0, -0.2, math.pi / 2, 2.0, math.nan):
            with pytest.raises(InputError):
                RetractionParams(bad)

    def test_half_angle_must_be_an_int_or_float(self):
        RetractionParams(1)
        for bad in ("x", "0.5", None, 0.5 + 0j, [0.5], Fraction(1, 2)):
            with pytest.raises(InputError, match="int or float"):
                RetractionParams(bad)


class TestRegionValidation:
    def test_puncture_rejected(self):
        with pytest.raises(InputError, match="puncture"):
            retract(RetractionParams(math.pi / 6), (0.0, 1.0))

    def test_outside_disk(self):
        with pytest.raises(InputError, match="unit disk"):
            validate_region_point(RetractionParams(math.pi / 6), 0.0, 1.5)

    def test_outside_sector(self):
        params = RetractionParams(math.pi / 3)
        with pytest.raises(InputError, match="sector"):
            validate_region_point(params, 0.9, 0.1)  # angle below lambda

    def test_origin_allowed(self):
        validate_region_point(RetractionParams(math.pi / 6), 0.0, 0.0)


class TestRetract:
    def test_segment_points_fixed(self):
        lam = math.pi / 6
        params = RetractionParams(lam)
        p = (0.5 * math.cos(lam), 0.5 * math.sin(lam))
        assert dist(retract(params, p), p) < 1e-9

    def test_oq_points_fixed(self):
        lam = math.pi / 5
        params = RetractionParams(lam)
        for h in (0.2, 0.7, 1.0):
            q = (-h * math.cos(lam), h * math.sin(lam))
            assert dist(retract(params, q), q) < 1e-9

    def test_y_axis_maps_to_origin(self):
        params = RetractionParams(math.pi / 6)
        assert retract(params, (0.0, 0.7)) == (0.0, 0.0)

    def test_idempotent(self):
        params = RetractionParams(math.pi / 4)
        once = retract(params, (0.3, 0.4))
        twice = retract(params, once)
        assert dist(once, twice) < 1e-9

    def test_image_on_target(self):
        params = RetractionParams(math.pi / 3)
        for p in ((0.1, 0.6), (-0.4, 0.7), (0.05, 0.9), (-0.02, 0.3)):
            image = retract(params, p)
            assert distance_to_target(params, image) < 1e-9

    def test_arc_maps_to_endpoints(self):
        lam = math.pi / 6
        params = RetractionParams(lam)
        theta = 1.1  # strictly between lam and pi - lam, right of the axis
        image = retract(params, (math.cos(theta), math.sin(theta)))
        assert dist(image, (math.cos(lam), math.sin(lam))) < 1e-9


class TestVerify:
    @pytest.mark.parametrize("lam,grid", [(math.pi / 6, 64), (math.pi / 3, 32), (math.pi / 4, 17)])
    def test_all_checks_pass(self, lam, grid):
        report = verify_retraction(RetractionParams(lam), grid)
        assert report.all_ok
        assert report.max_image_distance <= 1e-9
        assert report.max_fixed_deviation <= 1e-9
        assert report.max_idempotence_deviation <= 1e-9
        assert report.false_fixed_points == 0
        assert report.continuity_violations == 0

    def test_degenerate_grid(self):
        report = verify_retraction(RetractionParams(math.pi / 6), 2)
        assert report.samples == 4
        assert report.all_ok

    def test_grid_too_small(self):
        with pytest.raises(InputError):
            verify_retraction(RetractionParams(math.pi / 6), 1)

    def test_grid_must_be_an_integer(self):
        for bad in (2.5, "16", None):
            with pytest.raises(InputError, match="grid must be an integer"):
                verify_retraction(RetractionParams(0.5), bad)

    def test_grid_past_budget_is_refused_before_sampling(self):
        with pytest.raises(BudgetError, match="budget"):
            verify_retraction(RetractionParams(math.pi / 6), 10**20)

    def test_images_rounded_outside_the_disk_are_not_rejected(self):
        # rounding leaves some images about 3e-12 outside the disk here;
        # idempotence must judge them, not reject them as input
        report = verify_retraction(RetractionParams(1.5), 256)
        assert report.idempotent_ok

    def test_discontinuous_map_fails_continuity(self, monkeypatch):
        # a map that jumps away from the puncture must fail the proxy
        closed_form = geometry._closed_form

        def jump(t, x0, y0):
            return (0.0, 0.0) if y0 > 0.5 else closed_form(t, x0, y0)

        monkeypatch.setattr(geometry, "_closed_form", jump)
        report = verify_retraction(RetractionParams(0.5), 64)
        assert not report.continuity_ok
        reference = reference_verify_retraction(RetractionParams(0.5), 64)
        assert report_pairs(report) == report_pairs(reference)

    @pytest.mark.parametrize("lam,grid", REFERENCE_CASES)
    def test_matches_reference(self, lam, grid):
        params = RetractionParams(lam)
        new, reference = verify_retraction(params, grid), reference_verify_retraction(params, grid)
        assert new == reference
        assert report_pairs(new) == report_pairs(reference)

    def test_memory_does_not_grow_with_the_grid(self):
        # the grid-160 check used to hold 25,600 points and images (9.3 MB)
        params = RetractionParams(1.0)
        tracemalloc.start()
        try:
            verify_retraction(params, 160)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_report_pairs_deterministic(self):
        report = verify_retraction(RetractionParams(math.pi / 6), 8)
        assert report_pairs(report) == report_pairs(report)
        keys = [k for k, _ in report_pairs(report)]
        assert keys[0] == "lambda" and keys[-1] == "result"
