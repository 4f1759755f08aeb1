"""CAM tests: the GAP-linearity identity, aggregation, PGM round-trips."""

import numpy as np
import pytest

from msdalab.autodiff import ContractError, ShapeError, Tensor
from msdalab.cam import (
    Heatmap,
    aggregate_cams,
    compute_cam,
    compute_cams,
    export_pgm,
    raw_class_map,
    read_pgm,
    upsample_nearest,
)
from msdalab.model import build_model, forward_branch


def image(seed=0):
    return Tensor(np.random.default_rng(seed).uniform(0, 1, (1, 1, 28, 28)))


class TestRawClassMap:
    def test_gap_of_raw_map_equals_logit_minus_bias(self):
        m = build_model(2, 2, seed=1)
        rng = np.random.default_rng(2)
        for p in m.parameters():
            p.data += rng.normal(size=p.data.shape) * 0.05
        for trial in range(20):
            img = image(seed=trial)
            branch = trial % 2
            cls = trial % 2
            raw, bias = raw_class_map(m, img, cls, branch)
            logit = forward_branch(m, img, branch).logits.data[0, cls]
            assert abs(raw.mean() - (logit - bias)) < 1e-10

    def test_zero_classifier_weights_give_constant_map(self):
        m = build_model(1, 2, seed=3)
        m.params["branch0.fc.weight"].data[:] = 0.0
        m.params["branch0.cls.weight"].data[:] = 0.0
        hm = compute_cam(m, image(4), 0, 0)
        np.testing.assert_array_equal(hm.values, np.full((22, 22), 0.5))

    def test_single_map_unit_weight_recovers_feature_map(self):
        from msdalab.model import feature_maps

        m = build_model(1, 2, seed=5)
        # route exactly feature map k through the composed head
        m.params["branch0.fc.weight"].data[:] = 0.0
        m.params["branch0.fc.weight"].data[2, 0] = 1.0
        m.params["branch0.cls.weight"].data[:] = 0.0
        m.params["branch0.cls.weight"].data[0, 1] = 1.0
        img = image(6)
        raw, _ = raw_class_map(m, img, 1, 0)
        fmap = feature_maps(m, img, 0).data[0, 2]
        np.testing.assert_allclose(raw, fmap, atol=1e-12)
        hm = compute_cam(m, img, 1, 0)
        span = fmap.max() - fmap.min()
        np.testing.assert_allclose(hm.values, (fmap - fmap.min()) / span, atol=1e-12)

    def test_linearity_in_classifier_weights(self):
        m = build_model(1, 2, seed=7)
        rng = np.random.default_rng(8)
        img = image(9)
        w = m.params["branch0.cls.weight"]
        wa = rng.normal(size=w.data.shape)
        wb = rng.normal(size=w.data.shape)
        t = 0.3

        def raw_with(wdata):
            w.data = wdata.copy()
            return raw_class_map(m, img, 0, 0)[0]

        mixed = raw_with(t * wa + (1 - t) * wb)
        parts = t * raw_with(wa) + (1 - t) * raw_with(wb)
        np.testing.assert_allclose(mixed, parts, atol=1e-10)

    def test_invalid_indices(self):
        m = build_model(1, 2, seed=10)
        with pytest.raises(ContractError):
            compute_cam(m, image(), 2, 0)
        with pytest.raises(ContractError):
            compute_cam(m, image(), 0, 1)


class TestComputeCams:
    @pytest.mark.parametrize("branches", [1, 3])
    def test_equals_per_branch_cams(self, branches):
        m = build_model(branches, 2, seed=12)
        img = image(seed=3)
        for cls in (0, 1):
            cams = compute_cams(m, img, cls)
            assert len(cams) == branches
            for j, hm in enumerate(cams):
                ref = compute_cam(m, img, cls, j)
                np.testing.assert_array_equal(hm.values, ref.values)
                assert (hm.branch, hm.class_index, hm.source_image_shape) == (j, cls, (28, 28))

    def test_needs_one_image(self):
        m = build_model(2, 2, seed=13)
        with pytest.raises(ShapeError):
            compute_cams(m, Tensor(np.zeros((2, 1, 28, 28))), 0)


class TestAggregate:
    def test_identical_inputs_fixed_point(self):
        m = build_model(2, 2, seed=11)
        hm = compute_cam(m, image(12), 0, 0)
        agg = aggregate_cams([hm, hm])
        np.testing.assert_allclose(agg.values, hm.values, atol=1e-12)
        assert agg.branch == "aggregate"

    def test_order_invariant(self):
        m = build_model(3, 2, seed=13)
        maps = [compute_cam(m, image(14), 1, j) for j in range(3)]
        a = aggregate_cams(maps).values
        b = aggregate_cams(maps[::-1]).values
        np.testing.assert_allclose(a, b, atol=1e-14)

    def test_complementary_maps_stay_bimodal(self):
        left = np.zeros((4, 4))
        left[:, 0] = 1.0
        right = np.zeros((4, 4))
        right[:, 3] = 1.0
        agg = aggregate_cams([
            Heatmap(left, 0, 0, (28, 28)),
            Heatmap(right, 1, 0, (28, 28)),
        ])
        assert agg.values[0, 0] > 0.9 and agg.values[0, 3] > 0.9
        assert agg.values[0, 1] < 0.1

    def test_class_mismatch_rejected(self):
        a = Heatmap(np.zeros((4, 4)), 0, 0, (28, 28))
        b = Heatmap(np.zeros((4, 4)), 1, 1, (28, 28))
        with pytest.raises(ContractError):
            aggregate_cams([a, b])

    def test_shape_mismatch_rejected(self):
        a = Heatmap(np.zeros((4, 4)), 0, 0, (28, 28))
        b = Heatmap(np.zeros((5, 5)), 1, 0, (28, 28))
        with pytest.raises(ShapeError):
            aggregate_cams([a, b])


class TestPgm:
    def test_all_zero_heatmap(self, tmp_path):
        hm = Heatmap(np.zeros((22, 22)), 0, 0, (28, 28))
        path = tmp_path / "zero.pgm"
        export_pgm(hm, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "28 28"
        assert lines[2] == "255"
        np.testing.assert_array_equal(read_pgm(path), np.zeros((28, 28), dtype=int))

    def test_round_trip_matches_rounding(self, tmp_path):
        rng = np.random.default_rng(15)
        values = rng.uniform(0, 1, (22, 22))
        hm = Heatmap(values, "aggregate", 1, (28, 28))
        path = tmp_path / "m.pgm"
        export_pgm(hm, path)
        back = read_pgm(path)
        expected = np.rint(255.0 * upsample_nearest(values, (28, 28))).astype(int)
        np.testing.assert_array_equal(back, expected)

    def test_header_dimensions_are_source_shape(self, tmp_path):
        hm = Heatmap(np.ones((5, 7)), 0, 0, (14, 20))
        path = tmp_path / "d.pgm"
        export_pgm(hm, path)
        assert read_pgm(path).shape == (14, 20)

    @pytest.mark.parametrize("body", ["300 -4", "1 2 3", "1", "1 x"])
    def test_malformed_body_rejected_naming_the_file(self, tmp_path, body):
        path = tmp_path / "bad.pgm"
        path.write_text(f"P2\n2 1\n255\n{body}\n", encoding="ascii")
        with pytest.raises(ContractError, match="bad.pgm"):
            read_pgm(path)

    def test_upsample_covers_every_source_pixel(self):
        values = np.arange(4.0).reshape(2, 2)
        up = upsample_nearest(values, (4, 4))
        np.testing.assert_array_equal(up, [[0, 0, 1, 1], [0, 0, 1, 1], [2, 2, 3, 3], [2, 2, 3, 3]])
