import math

import pytest

from knotgrp import geometry
from knotgrp.errors import BudgetError, InputError
from knotgrp.geometry import (
    RetractionParams,
    distance_to_target,
    report_pairs,
    retract,
    validate_region_point,
    verify_retraction,
)


def dist(p, q):
    return math.hypot(p[0] - q[0], p[1] - q[1])


class TestParams:
    def test_half_angle_bounds(self):
        RetractionParams(0.1)
        for bad in (0.0, -0.2, math.pi / 2, 2.0):
            with pytest.raises(InputError):
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

    def test_report_pairs_deterministic(self):
        report = verify_retraction(RetractionParams(math.pi / 6), 8)
        assert report_pairs(report) == report_pairs(report)
        keys = [k for k, _ in report_pairs(report)]
        assert keys[0] == "lambda" and keys[-1] == "result"
