"""Synthetic domain generator and dataset utility tests."""

import numpy as np
import pytest

from msdalab.autodiff import ContractError, ShapeError
from msdalab import data as D
from msdalab.data import (
    DomainSpec,
    combine_sources,
    default_roster,
    generate_domain,
    glyph_mask,
    minibatches,
    read_dataset,
    split,
    strip_labels,
    write_dataset,
)

CLEAN = DomainSpec(
    "clean", background_level=0.0, blur_radius=0.0, noise_sigma=0.0,
    rotation_degrees=0.0, glyph_contrast=1.0,
)


class TestDomainSpec:
    def test_default_roster_names_unique(self):
        names = [s.name for s in default_roster()]
        assert len(names) == 6
        assert len(set(names)) == 6

    def test_validation(self):
        with pytest.raises(ContractError):
            DomainSpec("bad domain")
        with pytest.raises(ContractError):
            DomainSpec("x", background_level=1.5)
        with pytest.raises(ContractError):
            DomainSpec("x", blur_radius=-0.1)
        with pytest.raises(ContractError):
            DomainSpec("x", glyph_contrast=0.0)


class TestGenerateDomain:
    def test_deterministic(self):
        a = generate_domain(default_roster()[0], 24, seed=7)
        b = generate_domain(default_roster()[0], 24, seed=7)
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_odd_n_rejected(self):
        with pytest.raises(ContractError):
            generate_domain(CLEAN, 11, seed=0)

    def test_balanced_labels_and_range(self):
        ds = generate_domain(default_roster()[1], 40, seed=1)
        assert int(ds.labels.sum()) == 20
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert ds.images.shape == (40, 1, 28, 28)

    def test_noop_config_gives_exact_template(self):
        ds = generate_domain(CLEAN, 16, seed=2)
        mask = glyph_mask()
        mrows, mcols = np.nonzero(mask)
        template = mask[mrows.min() : mrows.max() + 1, mcols.min() : mcols.max() + 1]
        for img in ds.images[ds.labels == 0, 0]:
            assert set(np.unique(img)) <= {0.0, 1.0}
            assert img.sum() == mask.sum()
            rows, cols = np.nonzero(img)
            box = img[rows.min() : rows.max() + 1, cols.min() : cols.max() + 1]
            np.testing.assert_array_equal(box, template)

    def test_glyph_stays_in_top_left_quadrant(self):
        ds = generate_domain(CLEAN, 30, seed=3)
        for img in ds.images[:, 0]:
            rows, cols = np.nonzero(img)
            if rows.size:
                assert rows.max() < D.QUADRANT and cols.max() < D.QUADRANT

    def test_background_drives_mean_intensity(self):
        lo = generate_domain(DomainSpec("lo", background_level=0.2), 40, seed=4)
        hi = generate_domain(DomainSpec("hi", background_level=0.8), 40, seed=4)
        assert hi.images.mean() > lo.images.mean()

    @pytest.mark.parametrize(
        "change",
        [
            {"background_level": 0.6},
            {"blur_radius": 0.9},
            {"noise_sigma": 0.2},
            {"rotation_degrees": 11.0},
            {"glyph_contrast": 0.5},
        ],
    )
    def test_every_field_influences_output(self, change):
        from dataclasses import replace

        base = default_roster()[0]
        changed = replace(base, **change)
        a = generate_domain(base, 12, seed=5)
        b = generate_domain(changed, 12, seed=5)
        assert not np.array_equal(a.images, b.images)

    def test_domain_name_changes_stream(self):
        a = generate_domain(DomainSpec("one"), 12, seed=6)
        b = generate_domain(DomainSpec("two"), 12, seed=6)
        assert not np.array_equal(a.images, b.images)

    def test_not_ok_images_differ_from_ok(self):
        # blur_radius > 0 so the extra-blur defect is a real degradation
        spec = DomainSpec("d", background_level=0.2, blur_radius=0.4, noise_sigma=0.0,
                          rotation_degrees=0.0, glyph_contrast=0.9)
        ds = generate_domain(spec, 30, seed=8)
        ok = {img.tobytes() for img in ds.images[ds.labels == 0]}
        bad = {img.tobytes() for img in ds.images[ds.labels == 1]}
        assert ok.isdisjoint(bad)


class TestSplit:
    def test_exact_70_10_20_at_100(self):
        ds = generate_domain(default_roster()[0], 100, seed=9)
        train, val, test = split(ds, seed=0)
        assert (train.n, val.n, test.n) == (70, 10, 20)

    def test_partition_is_disjoint_and_exhaustive(self):
        ds = generate_domain(default_roster()[2], 60, seed=10)
        keys = {img.tobytes() for img in ds.images}
        parts = split(ds, seed=1)
        got = [img.tobytes() for p in parts for img in p.images]
        assert len(got) == 60
        assert set(got) == keys

    def test_stratified_within_two_samples(self):
        ds = generate_domain(default_roster()[3], 90, seed=11)
        for part in split(ds, seed=2):
            zeros = int((part.labels == 0).sum())
            ones = int((part.labels == 1).sum())
            assert abs(zeros - ones) <= 2

    def test_deterministic_in_seed(self):
        ds = generate_domain(default_roster()[0], 50, seed=12)
        a = split(ds, seed=3)
        b = split(ds, seed=3)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.images, y.images)

    def test_too_small_rejected(self):
        ds = generate_domain(CLEAN, 8, seed=13)
        with pytest.raises(ContractError):
            split(ds, seed=0)


class TestCombineSources:
    def test_sizes_and_name(self):
        a = generate_domain(default_roster()[0], 100, seed=14)
        b = generate_domain(default_roster()[1], 100, seed=14)
        combined = combine_sources([a, b])
        assert combined.n == 200
        assert combined.domain_name == "combined(Ab+Bu)"

    def test_label_multiset_preserved(self):
        a = generate_domain(default_roster()[0], 40, seed=15)
        b = generate_domain(default_roster()[1], 60, seed=15)
        combined = combine_sources([a, b])
        assert int(combined.labels.sum()) == int(a.labels.sum() + b.labels.sum())

    def test_combining_then_splitting_keeps_proportions(self):
        a = generate_domain(default_roster()[0], 100, seed=16)
        b = generate_domain(default_roster()[1], 100, seed=16)
        train, val, test = split(combine_sources([a, b]), seed=4)
        assert (train.n, val.n, test.n) == (140, 20, 40)

    def test_needs_two_sets(self):
        a = generate_domain(default_roster()[0], 20, seed=17)
        with pytest.raises(ContractError):
            combine_sources([a])

    def test_shape_mismatch_rejected(self):
        a = generate_domain(default_roster()[0], 20, seed=18)
        b = D.LabeledSet(np.zeros((4, 1, 14, 14)), np.zeros(4, dtype=np.int64), "tiny")
        with pytest.raises(ShapeError):
            combine_sources([a, b])


class TestMinibatches:
    def test_single_full_batch_is_shuffled(self):
        ds = generate_domain(default_roster()[0], 32, seed=19)
        (imgs, labels), = list(minibatches(ds, 32, seed=0, epoch=0))
        assert imgs.shape[0] == 32
        assert not np.array_equal(labels, ds.labels)  # shuffled order
        assert sorted(labels) == sorted(ds.labels)

    def test_same_key_same_order(self):
        ds = generate_domain(default_roster()[1], 48, seed=20)
        a = [lbl.tolist() for _, lbl in minibatches(ds, 16, seed=1, epoch=3)]
        b = [lbl.tolist() for _, lbl in minibatches(ds, 16, seed=1, epoch=3)]
        assert a == b
        c = [lbl.tolist() for _, lbl in minibatches(ds, 16, seed=1, epoch=4)]
        assert a != c

    def test_every_index_once_per_epoch(self):
        ds = generate_domain(default_roster()[2], 50, seed=21)
        seen = []
        for imgs, _ in minibatches(ds, 16, seed=2, epoch=0):
            seen.extend(img.tobytes() for img in imgs)
        assert len(seen) == 50
        assert set(seen) == {img.tobytes() for img in ds.images}

    def test_short_final_batch(self):
        ds = generate_domain(default_roster()[0], 50, seed=22)
        sizes = [imgs.shape[0] for imgs, _ in minibatches(ds, 16, seed=0, epoch=0)]
        assert sizes == [16, 16, 16, 2]

    def test_batch_out_of_range(self):
        ds = generate_domain(default_roster()[0], 20, seed=23)
        with pytest.raises(ContractError):
            list(minibatches(ds, 0, seed=0, epoch=0))
        with pytest.raises(ContractError):
            list(minibatches(ds, 21, seed=0, epoch=0))


class TestDatasetFiles:
    def test_round_trip_exact(self, tmp_path):
        ds = generate_domain(default_roster()[4], 30, seed=24)
        path = tmp_path / "wi.msda"
        write_dataset(ds, path)
        back = read_dataset(path)
        np.testing.assert_array_equal(back.images, ds.images)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.domain_name == ds.domain_name

    def test_rewrite_is_byte_identical(self, tmp_path):
        ds = generate_domain(default_roster()[5], 20, seed=25)
        p1, p2 = tmp_path / "a.msda", tmp_path / "b.msda"
        write_dataset(ds, p1)
        write_dataset(read_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.msda"
        path.write_bytes(b"NOTADATASET\nEND\n")
        with pytest.raises(ContractError):
            read_dataset(path)

    def test_empty_header_rejected(self, tmp_path):
        path = tmp_path / "junk.msda"
        path.write_bytes(b"\nEND\n")
        with pytest.raises(ContractError, match="junk.msda.*bad magic"):
            read_dataset(path)

    def test_header_ends_only_at_whole_end_line(self, tmp_path):
        ds = generate_domain(DomainSpec("BEND"), 10, seed=27)
        path = tmp_path / "bend.msda"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.domain_name == "BEND"
        np.testing.assert_array_equal(back.images, ds.images)

        path.write_bytes(path.read_bytes().replace(b"\nEND\n", b"\n", 1))
        with pytest.raises(ContractError, match="bend.msda.*END"):
            read_dataset(path)


class TestMalformedDatasetFiles:
    @pytest.fixture
    def written(self, tmp_path):
        path = tmp_path / "ab.msda"
        write_dataset(generate_domain(default_roster()[0], 10, seed=28), path)
        header, _, body = path.read_bytes().partition(b"\nEND\n")
        return path, header + b"\nEND\n", body

    @pytest.mark.parametrize("key", ["name", "n", "shape", "labels"])
    def test_missing_header_line(self, written, key):
        path, header, body = written
        lines = [ln for ln in header.split(b"\n") if not ln.startswith(key.encode() + b" ")]
        path.write_bytes(b"\n".join(lines) + body)
        with pytest.raises(ContractError, match=f"ab.msda.*no '{key}' line"):
            read_dataset(path)

    def test_short_body(self, written):
        path, header, body = written
        path.write_bytes(header + body[:-100])
        with pytest.raises(ContractError, match="ab.msda.*body has"):
            read_dataset(path)

    def test_trailing_bytes(self, written):
        path, header, body = written
        path.write_bytes(header + body + bytes(16))
        with pytest.raises(ContractError, match="ab.msda.*body has"):
            read_dataset(path)

    def test_label_counts_disagree_with_header(self, written):
        path, header, body = written
        path.write_bytes(header.replace(b"labels 5 5", b"labels 6 4") + body)
        with pytest.raises(ContractError, match="ab.msda.*'labels' line says"):
            read_dataset(path)

    def test_label_outside_classes(self, written):
        path, header, body = written
        labels = np.frombuffer(body[-80:], dtype="<i8").copy()
        labels[3] = 5
        path.write_bytes(header + body[:-80] + labels.astype("<i8").tobytes())
        with pytest.raises(ContractError, match=r"ab.msda.*outside \{0, 1\} at rows \[3\]"):
            read_dataset(path)


class TestStripLabels:
    def test_unlabeled_view(self):
        ds = generate_domain(default_roster()[0], 20, seed=26)
        u = strip_labels(ds)
        assert not hasattr(u, "labels")
        assert u.n == ds.n
        np.testing.assert_array_equal(u.images, ds.images)
