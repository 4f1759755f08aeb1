"""Model structure, forward contracts, gradient isolation, checkpoints."""

from collections import Counter

import numpy as np
import pytest

from msdalab import autodiff as ad
from msdalab.autodiff import ContractError, ShapeError, Tensor, backward
from msdalab.losses import cross_entropy
from msdalab import model as model_module
from msdalab import trainer
from msdalab.data import default_roster, generate_domain, strip_labels
from msdalab.losses import LossWeights
from msdalab.model import (
    all_feature_maps,
    build_model,
    feature_maps,
    forward_all,
    forward_branch,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from msdalab.trainer import AdamState, HyperParams, adam_step, train_multi_source, train_single_source


def small_images(n, seed=0):
    return Tensor(np.random.default_rng(seed).uniform(0, 1, (n, 1, 28, 28)))


class TestBuildModel:
    def test_same_seed_bitwise_identical(self):
        a = build_model(2, 2, seed=11)
        b = build_model(2, 2, seed=11)
        assert list(a.params) == list(b.params)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_differs(self):
        a = build_model(2, 2, seed=1)
        b = build_model(2, 2, seed=2)
        assert any(
            not np.array_equal(pa.data, pb.data)
            for pa, pb in zip(a.parameters(), b.parameters())
        )

    def test_three_sources_structure(self):
        m = build_model(3, 2, seed=0)
        names = list(m.params)
        assert sum(1 for n in names if n.startswith("shared.")) == 4
        for j in range(3):
            assert f"branch{j}.conv.weight" in names
            assert f"branch{j}.cls.weight" in names
        assert len(set(names)) == len(names)

    def test_single_source_degenerate(self):
        m = build_model(1, 2, seed=0)
        assert m.num_sources == 1
        assert not any(n.startswith("branch1.") for n in m.params)

    def test_biases_zero(self):
        m = build_model(2, 3, seed=5)
        for name, p in m.params.items():
            if name.endswith(".bias"):
                np.testing.assert_array_equal(p.data, np.zeros_like(p.data))

    def test_image_too_small(self):
        with pytest.raises(ShapeError):
            build_model(1, 2, image_spec=(1, 6, 6), seed=0)

    def test_bad_arity(self):
        with pytest.raises(ContractError):
            build_model(0, 2, seed=0)
        with pytest.raises(ContractError):
            build_model(1, 1, seed=0)


class TestForwardBranch:
    def test_zero_image_uniform_probs(self):
        m = build_model(2, 2, seed=3)
        out = forward_branch(m, Tensor(np.zeros((5, 1, 28, 28))), 0)
        np.testing.assert_allclose(out.probs.data, np.full((5, 2), 0.5), atol=1e-15)

    def test_batch_dimension_preserved(self):
        m = build_model(2, 2, seed=4)
        for n in (1, 7):
            out = forward_branch(m, small_images(n), 1)
            assert out.features.shape == (n, 16)
            assert out.logits.shape == (n, 2)
            assert out.probs.shape == (n, 2)

    def test_probs_are_softmax_of_logits(self):
        m = build_model(2, 2, seed=5)
        out = forward_branch(m, small_images(4), 0)
        e = np.exp(out.logits.data - out.logits.data.max(axis=1, keepdims=True))
        np.testing.assert_allclose(out.probs.data, e / e.sum(axis=1, keepdims=True), atol=1e-12)
        np.testing.assert_allclose(out.probs.data.sum(axis=1), np.ones(4), atol=1e-6)

    def test_branch_index_out_of_range(self):
        m = build_model(2, 2, seed=6)
        with pytest.raises(ContractError):
            forward_branch(m, small_images(1), 2)

    def test_branches_diverge_after_one_sided_step(self):
        m = build_model(2, 2, seed=7)
        x = small_images(6, seed=1)
        before0 = forward_branch(m, x, 0).logits.data.copy()
        before1 = forward_branch(m, x, 1).logits.data.copy()
        np.testing.assert_array_equal(before0 - before0, before1 - before1)  # same shape

        branch0_params = [p for n, p in m.params.items() if n.startswith("branch0.")]
        hp = HyperParams()
        state = AdamState.for_params(branch0_params)
        with ad.scoped_tape():
            loss = cross_entropy(forward_branch(m, x, 0).logits, [0, 1, 0, 1, 0, 1])
            ad.zero_grads(branch0_params)
            backward(loss)
            adam_step(branch0_params, [p.grad for p in branch0_params], state, hp, 1)

        after0 = forward_branch(m, x, 0).logits.data
        after1 = forward_branch(m, x, 1).logits.data
        assert not np.array_equal(before0, after0)
        np.testing.assert_array_equal(before1, after1)

    def test_gradients_stay_in_own_branch(self):
        m = build_model(3, 2, seed=8)
        x = small_images(4, seed=2)
        with ad.scoped_tape():
            loss = cross_entropy(forward_branch(m, x, 1).logits, [0, 1, 0, 1])
            ad.zero_grads(m.parameters())
            backward(loss)
        for name, p in m.params.items():
            flat = np.abs(p.grad).sum()
            if name.startswith(("branch0.", "branch2.")):
                assert flat == 0.0, name
            elif name.startswith("shared.conv1."):
                assert flat > 0.0, name

    def test_parameter_count_stable_across_forwards(self):
        m = build_model(2, 2, seed=9)
        n_before = len(m.params)
        forward_branch(m, small_images(3), 0)
        predict(m, small_images(3))
        assert len(m.params) == n_before


class TestPredict:
    def test_single_branch_matches_branch_argmax(self):
        m = build_model(1, 2, seed=10)
        x = small_images(9, seed=3)
        labels, avg = predict(m, x)
        out = forward_branch(m, x, 0)
        np.testing.assert_allclose(avg.data, out.probs.data, atol=1e-15)
        assert labels == list(np.argmax(out.probs.data, axis=1))

    def test_tie_breaks_to_lower_index(self):
        m = build_model(2, 2, seed=11)
        labels, avg = predict(m, Tensor(np.zeros((3, 1, 28, 28))))
        np.testing.assert_allclose(avg.data, np.full((3, 2), 0.5), atol=1e-15)
        assert labels == [0, 0, 0]

    def test_rows_sum_to_one(self):
        m = build_model(3, 2, seed=12)
        _, avg = predict(m, small_images(6, seed=4))
        np.testing.assert_allclose(avg.data.sum(axis=1), np.ones(6), atol=1e-6)

    def test_scaling_logits_keeps_labels(self):
        m = build_model(2, 2, seed=13)
        x = small_images(8, seed=5)
        labels, _ = predict(m, x)
        for j in range(2):
            w = m.params[f"branch{j}.cls.weight"]
            b = m.params[f"branch{j}.cls.bias"]
            w.data *= 3.0
            b.data *= 3.0
        rescaled, _ = predict(m, x)
        assert labels == rescaled

    def test_deterministic(self):
        m = build_model(2, 2, seed=14)
        x = small_images(5, seed=6)
        assert predict(m, x)[0] == predict(m, x)[0]


class TestSharedTrunkFanOut:
    @pytest.mark.parametrize("branches", [1, 2, 3])
    def test_forward_all_equals_forward_branch(self, branches):
        m = build_model(branches, 2, seed=20 + branches)
        x = small_images(5, seed=branches)
        outs = forward_all(m, x)
        assert len(outs) == branches
        for j, out in enumerate(outs):
            ref = forward_branch(m, x, j)
            for field in ("features", "logits", "probs"):
                np.testing.assert_array_equal(getattr(out, field).data, getattr(ref, field).data)

    @pytest.mark.parametrize("branches", [1, 2, 3])
    def test_all_feature_maps_stack_every_branch(self, branches):
        m = build_model(branches, 2, seed=30 + branches)
        x = small_images(3, seed=branches)
        maps = all_feature_maps(m, x)
        assert maps.shape == (3, 16 * branches, 22, 22)
        for j in range(branches):
            np.testing.assert_array_equal(maps[:, 16 * j : 16 * (j + 1)], feature_maps(m, x, j).data)

    @pytest.mark.parametrize("branches", [1, 2, 3])
    def test_predict_is_uniform_mean_of_branch_probs(self, branches):
        m = build_model(branches, 2, seed=40 + branches)
        x = small_images(7, seed=branches)
        acc = forward_branch(m, x, 0).probs.data
        for j in range(1, branches):
            acc = acc + forward_branch(m, x, j).probs.data
        labels, avg = predict(m, x)
        np.testing.assert_array_equal(avg.data, acc / branches)
        assert labels == [int(i) for i in np.argmax(acc / branches, axis=1)]

    def test_gradient_check_through_forward_all(self):
        m = build_model(2, 2, image_spec=(1, 8, 8), seed=50)
        rng = np.random.default_rng(51)
        for p in m.parameters():
            p.data += rng.normal(size=p.data.shape) * 0.1
        x = Tensor(rng.uniform(0, 1, (3, 1, 8, 8)))
        labels = [0, 1, 1]

        def f():
            losses = [cross_entropy(out.logits, labels) for out in forward_all(m, x)]
            return ad.add(losses[0], losses[1])

        names = ["shared.conv1.weight", "shared.conv2.bias", "branch0.conv.bias",
                 "branch1.fc.bias", "branch0.cls.weight", "branch1.cls.weight"]
        assert ad.finite_difference_check(f, [m[n] for n in names], eps=1e-5) < 1e-4

    def test_stacked_gradients_match_per_branch_gradients(self):
        m = build_model(3, 2, seed=55)
        rng = np.random.default_rng(56)
        for p in m.parameters():
            p.data += rng.normal(size=p.data.shape) * 0.1
        x = small_images(6, seed=10)
        labels = [0, 1, 1, 0, 1, 0]

        def grads(outs):
            with ad.scoped_tape():
                losses = [cross_entropy(out.logits, labels) for out in outs()]
                ad.zero_grads(m.parameters())
                backward(sum(losses[1:], losses[0]))
            return {name: p.grad.copy() for name, p in m.params.items()}

        stacked = grads(lambda: forward_all(m, x))
        per_branch = grads(lambda: [forward_branch(m, x, j) for j in range(3)])
        for name, want in per_branch.items():
            scale = np.abs(want).max()
            assert scale > 0.0, name
            assert np.abs(stacked[name] - want).max() <= 1e-12 * scale, name

    def test_non_finite_image_is_not_labelled(self):
        m = build_model(2, 2, seed=52)
        x = small_images(4, seed=9)
        x.data[2, 0, 5, 5] = np.nan
        with pytest.raises(ContractError, match=r"rows \[2\]"):
            predict(m, x)


def _count_convs(monkeypatch, m):
    """Count conv2d calls: "trunk" on the model's first shared kernel, and
    "branch" on any kernel that is not a shared one (a branch kernel or
    the stack of them)."""
    calls = Counter()
    conv = model_module.conv2d
    shared = (m["shared.conv1.weight"], m["shared.conv2.weight"])

    def counting(x, kernel, *args, **kwargs):
        if kernel is shared[0]:
            calls["trunk"] += 1
        elif kernel is not shared[1]:
            calls["branch"] += 1
        return conv(x, kernel, *args, **kwargs)

    monkeypatch.setattr(model_module, "conv2d", counting)
    return calls


class TestTrunkPasses:
    def test_one_per_predict(self, monkeypatch):
        m = build_model(3, 2, seed=53)
        calls = _count_convs(monkeypatch, m)
        predict(m, small_images(4))
        assert calls == {"trunk": 1, "branch": 1}

    @pytest.mark.parametrize("sources, expected", [(3, 4), (1, 2)])
    def test_per_training_step(self, monkeypatch, sources, expected):
        roster = default_roster()
        domains = [generate_domain(roster[k], 20, seed=0) for k in range(sources)]
        target = strip_labels(generate_domain(roster[5], 20, seed=1))
        # one epoch of one step: the 14-image train split fills one batch
        hp = HyperParams(epochs=1, batch=14, seed=0, weights=LossWeights(lam=0.1, gamma=0.1))
        monkeypatch.setattr(trainer, "_val_accuracy", lambda model, val_sets: 0.0)
        m = build_model(sources, 2, seed=54)
        calls = _count_convs(monkeypatch, m)
        if sources == 1:
            train_single_source(m, domains[0], target, hp)
        else:
            train_multi_source(m, domains, target, hp)
        assert calls["trunk"] == expected
        # one conv per source batch, plus one stacked conv for the target batch
        assert calls["branch"] == sources + 1


class TestFeatureMaps:
    def test_spatial_shape_matches_conv_arithmetic(self):
        m = build_model(2, 2, seed=15)
        maps = feature_maps(m, small_images(2, seed=7), 0)
        assert maps.shape == (2, 16, 22, 22)

    def test_zero_input_zero_maps(self):
        m = build_model(2, 2, seed=16)
        maps = feature_maps(m, Tensor(np.zeros((2, 1, 28, 28))), 1)
        np.testing.assert_array_equal(maps.data, np.zeros_like(maps.data))

    def test_head_recomputed_from_maps_matches_branch_output(self):
        m = build_model(2, 2, seed=17)
        x = small_images(5, seed=8)
        j = 1
        maps = feature_maps(m, x, j)
        pooled = maps.data.mean(axis=(2, 3))
        feats = pooled @ m.params[f"branch{j}.fc.weight"].data + m.params[f"branch{j}.fc.bias"].data
        logits = feats @ m.params[f"branch{j}.cls.weight"].data + m.params[f"branch{j}.cls.bias"].data
        out = forward_branch(m, x, j)
        np.testing.assert_allclose(feats, out.features.data, atol=1e-12)
        np.testing.assert_allclose(logits, out.logits.data, atol=1e-12)


# how a checkpoint's header or body is broken -> the error it must raise
LAYOUT_FAULTS = {
    "missing": r"no parameter 'branch0\.cls\.bias'",
    "repeated": r"parameter 'branch0\.cls\.bias' appears twice",
    "unknown": r"unknown parameter 'branch9\.cls\.bias'",
    "gap": r"parameter 'branch0\.cls\.bias' starts at byte \d+, expected \d+",
    "short": r"body of \d+ bytes ends inside parameter 'branch0\.\w+\.weight'",
    "long": r"16 bytes follow the last parameter 'branch0\.cls\.bias'",
}

# a header edit -> the ContractError message it must raise
HEADER_FAULTS = {
    "param_without_dim": (lambda ls: ls[:-1] + [" ".join(ls[-1].split()[:3] + ls[-1].split()[-1:])],
                          r"malformed header line 'param branch0\.cls\.bias 1 \d+'"),
    "num_sources_without_value": (lambda ls: [l if l != "num_sources 1" else "num_sources" for l in ls],
                                  r"malformed header line 'num_sources'"),
    "blank_line": (lambda ls: ls[:1] + [""] + ls[1:], r"malformed header line ''"),
    "num_classes_word": (lambda ls: [l.replace("num_classes 2", "num_classes two") for l in ls],
                         r"malformed header line 'num_classes two'"),
    "no_num_sources": (lambda ls: [l for l in ls if not l.startswith("num_sources")],
                       r"header has no 'num_sources' line"),
    "non_ascii_byte": (lambda ls: [l.replace("num_classes", "num_cl\u00e9sses") for l in ls],
                       r"header byte \d+ is 0xc3, not ASCII"),
    "center_input_0": (lambda ls: [l.replace("center_input 1", "center_input 0") for l in ls],
                       r"center_input is 0, but every model centres its input"),
}


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        m = build_model(3, 2, seed=18)
        for p in m.parameters():  # make values non-trivial
            p.data += np.random.default_rng(0).normal(size=p.data.shape) * 0.01
        path = tmp_path / "model.ckpt"
        save_checkpoint(m, path)
        back = load_checkpoint(path)
        assert back.num_sources == 3 and back.num_classes == 2
        assert list(back.params) == list(m.params)
        for a, b in zip(m.parameters(), back.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_resave_identical_bytes(self, tmp_path):
        m = build_model(2, 2, seed=19)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_lists_names_shapes_offsets(self, tmp_path):
        m = build_model(1, 2, seed=20)
        path = tmp_path / "c.ckpt"
        save_checkpoint(m, path)
        header = path.read_bytes().split(b"END\n")[0].decode().splitlines()
        param_lines = [l for l in header if l.startswith("param ")]
        assert len(param_lines) == len(m.params)
        first = param_lines[0].split()
        assert first[1] == "shared.conv1.weight"
        assert first[2] == "4"
        assert first[-1] == "0"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"WRONG 9\nEND\n")
        with pytest.raises(ContractError):
            load_checkpoint(path)

    def test_header_ends_only_at_whole_end_line(self, tmp_path):
        m = build_model(1, 2, seed=21)
        path = tmp_path / "d.ckpt"
        save_checkpoint(m, path)
        raw = path.read_bytes()
        magic_end = raw.index(b"\n") + 1
        path.write_bytes(raw[:magic_end] + b"note BEND\n" + raw[magic_end:])
        back = load_checkpoint(path)
        for a, b in zip(m.parameters(), back.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

        path.write_bytes(raw.replace(b"\nEND\n", b"\n", 1))
        with pytest.raises(ContractError, match="d.ckpt.*END"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", LAYOUT_FAULTS)
    def test_inconsistent_layout_names_file_and_parameter(self, tmp_path, case):
        path = tmp_path / "e.ckpt"
        save_checkpoint(build_model(1, 2, seed=22), path)
        header, body = path.read_bytes().split(b"\nEND\n", 1)
        lines = header.decode().splitlines()
        last = lines[-1].split()
        if case == "missing":
            lines.pop()
        elif case == "repeated":
            lines.append(lines[-1])
        elif case == "unknown":
            lines[-1] = lines[-1].replace("branch0", "branch9")
        elif case == "gap":
            lines[-1] = " ".join(last[:-1] + [str(int(last[-1]) + 8)])
        elif case == "short":
            body = body[:-100]
        else:
            body += bytes(16)
        path.write_bytes("\n".join(lines).encode() + b"\nEND\n" + body)
        with pytest.raises(ContractError, match="e.ckpt: " + LAYOUT_FAULTS[case]):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", HEADER_FAULTS)
    def test_malformed_header_names_file_and_line(self, tmp_path, case):
        path = tmp_path / "f.ckpt"
        save_checkpoint(build_model(1, 2, seed=23), path)
        header, body = path.read_bytes().split(b"\nEND\n", 1)
        edit, message = HEADER_FAULTS[case]
        lines = edit(header.decode().splitlines())
        path.write_bytes("\n".join(lines).encode() + b"\nEND\n" + body)
        with pytest.raises(ContractError, match="f.ckpt: " + message):
            load_checkpoint(path)
