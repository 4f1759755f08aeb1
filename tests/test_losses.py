"""Loss-term tests against hand values and independent oracles.

The MMD oracle below is a deliberate triple loop over pairs with its own
bandwidth computation; the covariance oracle is two-pass mean centering.
Neither shares code with the implementations they check.
"""

import math

import numpy as np
import pytest

from msdalab import autodiff as ad
from msdalab import losses
from msdalab.autodiff import ContractError, ShapeError, Tensor, finite_difference_check, softmax_rows
from msdalab.losses import (
    DegenerateBatchError,
    KernelConfig,
    LossWeights,
    NumericError,
    class_discrepancy,
    coral_loss,
    covariance,
    cross_entropy,
    feature_discrepancy,
    mmd_squared,
    total_loss,
)

FIXED = KernelConfig(bandwidth_multipliers=(1.0,), base_bandwidth=1.0)


def rand(shape, seed, lo=-1.0, hi=1.0):
    return np.random.default_rng(seed).uniform(lo, hi, size=shape)


# --- independent oracles ----------------------------------------------------


def naive_mmd(xs: np.ndarray, xt: np.ndarray, multipliers, base=None) -> float:
    """Triple-loop evaluation of the biased squared-MMD estimate."""
    z = np.concatenate([xs, xt])
    if base is None:
        dists = []
        for i in range(len(z)):
            for j in range(i + 1, len(z)):
                dists.append(float(np.sum((z[i] - z[j]) ** 2)))
        sigma_sq = float(np.median(dists)) if dists else 1.0
        if sigma_sq <= 0:
            sigma_sq = 1.0
    else:
        sigma_sq = base

    def k(a, b):
        d2 = float(np.sum((a - b) ** 2))
        return sum(math.exp(-d2 / (m * sigma_sq)) for m in multipliers) / len(multipliers)

    n, m = len(xs), len(xt)
    total = 0.0
    for i in range(n):
        for j in range(n):
            total += k(xs[i], xs[j]) / (n * n)
    for i in range(m):
        for j in range(m):
            total += k(xt[i], xt[j]) / (m * m)
    for i in range(n):
        for j in range(m):
            total -= 2.0 * k(xs[i], xt[j]) / (n * m)
    return total


def two_pass_covariance(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=0, keepdims=True)
    return centered.T @ centered / (x.shape[0] - 1)


# --- kernel config / mmd ---------------------------------------------------


class TestKernelConfig:
    def test_multiplier_validation(self):
        with pytest.raises(ContractError):
            KernelConfig(bandwidth_multipliers=())
        with pytest.raises(ContractError):
            KernelConfig(bandwidth_multipliers=(1.0, -2.0))
        with pytest.raises(ContractError):
            KernelConfig(base_bandwidth=0.0)


class TestMmd:
    def test_same_tensor_is_exactly_zero(self):
        x = Tensor(rand((7, 3), 1))
        assert mmd_squared(x, x, KernelConfig()).item() == 0.0
        assert mmd_squared(x, x, FIXED).item() == 0.0

    def test_hand_value_single_points(self):
        got = mmd_squared(Tensor([[0.0]]), Tensor([[1.0]]), FIXED).item()
        assert got == pytest.approx(2.0 * (1.0 - math.exp(-1.0)), abs=1e-15)

    def test_matches_naive_loop_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            n, m, d = rng.integers(1, 9), rng.integers(1, 9), rng.integers(1, 5)
            xs, xt = rng.normal(size=(n, d)), rng.normal(size=(m, d))
            cfg = KernelConfig() if trial % 2 else FIXED
            base = None if trial % 2 else 1.0
            got = mmd_squared(Tensor(xs), Tensor(xt), cfg).item()
            want = naive_mmd(xs, xt, cfg.bandwidth_multipliers, base)
            assert got == pytest.approx(want, abs=1e-10)

    def test_nonnegative_on_random_batches(self):
        rng = np.random.default_rng(3)
        cfg = KernelConfig()
        for _ in range(1000):
            n, m = rng.integers(1, 7), rng.integers(1, 7)
            d = rng.integers(1, 4)
            v = mmd_squared(
                Tensor(rng.uniform(-1, 1, (n, d))), Tensor(rng.uniform(-1, 1, (m, d))), cfg
            ).item()
            assert v >= 0.0

    def test_empty_batch(self):
        with pytest.raises(DegenerateBatchError):
            mmd_squared(Tensor(np.zeros((0, 2))), Tensor(np.zeros((3, 2))))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            mmd_squared(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))), FIXED)

    def test_same_single_point_in_distinct_tensors_is_exactly_zero(self):
        # the only pair is at distance 0, so the median bandwidth falls back to 1
        got = mmd_squared(Tensor([[0.3, -0.2]]), Tensor([[0.3, -0.2]]), KernelConfig())
        assert got.item() == 0.0

    def test_equal_points_have_unit_kernel_under_every_bandwidth(self):
        # every entry of K is exp(0) = 1 exactly, so 1 + 1 - 2 leaves no rounding
        x = rand((6, 4), 0)
        for cfg in (FIXED, KernelConfig(bandwidth_multipliers=(0.7,)), KernelConfig()):
            for row in x:
                got = mmd_squared(Tensor(row[None, :]), Tensor(row[None, :].copy()), cfg)
                assert got.item() == 0.0

    def test_one_distance_matrix_per_call(self, monkeypatch):
        calls = []
        real = losses.pairwise_sq_dists

        def counting(a, b):
            calls.append((a.shape, b.shape))
            return real(a, b)

        monkeypatch.setattr(losses, "pairwise_sq_dists", counting)
        for cfg in (KernelConfig(), FIXED):
            calls.clear()
            mmd_squared(Tensor(rand((4, 3), 11)), Tensor(rand((5, 3), 12)), cfg)
            assert calls == [((9, 3), (9, 3))]

    def test_gradient_with_median_heuristic(self):
        x = ad.parameter(rand((6, 3), 4))
        y = ad.parameter(rand((5, 3), 5))
        err = finite_difference_check(lambda: mmd_squared(x, y, KernelConfig()), [x, y], eps=1e-5)
        assert err < 1e-4

    def test_gradient_with_fixed_bandwidth(self):
        x = ad.parameter(rand((6, 3), 6))
        y = ad.parameter(rand((5, 3), 7))
        err = finite_difference_check(lambda: mmd_squared(x, y, FIXED), [x, y], eps=1e-5)
        assert err < 1e-4


class TestCovariance:
    def test_identical_rows_give_zero(self):
        out = covariance(Tensor([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_allclose(out.data, np.zeros((2, 2)), atol=1e-15)

    def test_hand_value_variance_two(self):
        np.testing.assert_allclose(covariance(Tensor([[0.0], [2.0]])).data, [[2.0]], atol=1e-12)

    def test_matches_two_pass_oracle(self):
        for seed in range(10):
            x = rand((np.random.default_rng(seed).integers(2, 12), 5), seed)
            got = covariance(Tensor(x)).data
            np.testing.assert_allclose(got, two_pass_covariance(x), atol=1e-12)

    def test_symmetric_and_psd(self):
        for seed in range(20, 25):
            x = rand((9, 4), seed)
            c = covariance(Tensor(x)).data
            np.testing.assert_allclose(c, c.T, atol=1e-12)
            assert np.linalg.eigvalsh(c).min() >= -1e-10

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            covariance(Tensor([[1.0, 2.0]]))


class TestCoral:
    def test_identical_batches_give_zero(self):
        x = Tensor(rand((5, 3), 8))
        assert coral_loss(x, x).item() == 0.0

    def test_hand_value_one(self):
        src = Tensor([[0.0], [2.0]])  # sample variance 2
        tgt = Tensor([[0.7], [0.7]])  # sample variance 0
        assert coral_loss(src, tgt).item() == pytest.approx(1.0, abs=1e-12)

    def test_symmetric(self):
        x, y = Tensor(rand((6, 4), 9)), Tensor(rand((8, 4), 10))
        assert coral_loss(x, y).item() == pytest.approx(coral_loss(y, x).item(), abs=1e-12)

    def test_invariant_under_shared_rotation(self):
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(7, 5)), rng.normal(size=(9, 5))
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        before = coral_loss(Tensor(x), Tensor(y)).item()
        after = coral_loss(Tensor(x @ q), Tensor(y @ q)).item()
        assert after == pytest.approx(before, abs=1e-9)

    def test_gradient(self):
        x = ad.parameter(rand((5, 3), 12))
        y = ad.parameter(rand((6, 3), 13))
        assert finite_difference_check(lambda: coral_loss(x, y), [x, y], eps=1e-5) < 1e-4

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError):
            coral_loss(Tensor([[1.0]]), Tensor(rand((4, 1), 14)))


class TestFeatureDiscrepancy:
    def test_identical_batches_give_zero(self):
        x = Tensor(rand((6, 3), 15))
        assert feature_discrepancy(x, x).item() == 0.0

    def test_equals_sum_of_parts(self):
        x, y = Tensor(rand((6, 3), 16)), Tensor(rand((5, 3), 17))
        cfg = KernelConfig()
        whole = feature_discrepancy(x, y, cfg).item()
        parts = mmd_squared(x, y, cfg).item() + coral_loss(x, y).item()
        assert whole == parts

    def test_one_dimensional_hand_case(self):
        src, tgt = Tensor([[0.0]]), Tensor([[1.0]])
        # covariance needs two rows, so extend with a second identical pair
        src2, tgt2 = Tensor([[0.0], [0.0]]), Tensor([[1.0], [1.0]])
        got = feature_discrepancy(src2, tgt2, FIXED).item()
        want = naive_mmd(src2.data, tgt2.data, (1.0,), 1.0) + 0.0  # equal (zero) covariances
        assert got == pytest.approx(want, abs=1e-12)


class TestClassDiscrepancy:
    def test_identical_outputs_give_zero(self):
        p = Tensor(softmax_rows(Tensor(rand((4, 3), 18))).data)
        assert class_discrepancy([p, p, p]).item() == 0.0

    def test_hand_value_one(self):
        assert class_discrepancy([Tensor([[1.0, 0.0]]), Tensor([[0.0, 1.0]])]).item() == 1.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(19)
        outs = [softmax_rows(Tensor(rng.normal(size=(5, 4)))) for _ in range(4)]
        base = class_discrepancy(outs).item()
        perm = class_discrepancy([outs[2], outs[0], outs[3], outs[1]]).item()
        assert perm == pytest.approx(base, abs=1e-15)

    def test_bounded(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            outs = [softmax_rows(Tensor(rng.normal(size=(6, 3)))) for _ in range(3)]
            v = class_discrepancy(outs).item()
            assert 0.0 <= v <= 2.0

    def test_needs_two_classifiers(self):
        with pytest.raises(ContractError):
            class_discrepancy([Tensor([[1.0, 0.0]])])

    def test_rejects_non_probability_rows(self):
        with pytest.raises(ContractError):
            class_discrepancy([Tensor([[0.9, 0.3]]), Tensor([[0.5, 0.5]])])
        # a NaN row passes any |sum - 1| test
        nan_rows = Tensor([[0.5, 0.5], [np.nan, np.nan], [1.0, 0.0]])
        ok = Tensor([[0.5, 0.5]] * 3)
        with pytest.raises(ContractError, match=r"output 1 has non-finite rows \[1\]"):
            class_discrepancy([ok, nan_rows])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ShapeError):
            class_discrepancy([Tensor([[1.0, 0.0]]), Tensor([[0.5, 0.5], [0.5, 0.5]])])

    def test_gradient(self):
        a = ad.parameter(rand((4, 3), 21))
        b = ad.parameter(rand((4, 3), 22))
        f = lambda: class_discrepancy([softmax_rows(a), softmax_rows(b)])
        assert finite_difference_check(f, [a, b], eps=1e-5) < 1e-4


class TestCrossEntropy:
    def test_uniform_prediction(self):
        got = cross_entropy(Tensor([[0.0, 0.0]]), [0]).item()
        assert got == pytest.approx(math.log(2.0), abs=1e-12)
        assert got >= 0.0

    def test_confident_correct_is_near_zero(self):
        assert cross_entropy(Tensor([[1000.0, 0.0]]), [0]).item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_softmax_log(self):
        rng = np.random.default_rng(23)
        logits = rng.uniform(-5, 5, (10, 4))
        labels = rng.integers(0, 4, 10)
        e = np.exp(logits)
        probs = e / e.sum(axis=1, keepdims=True)
        want = float(np.mean([-math.log(probs[i, labels[i]]) for i in range(10)]))
        got = cross_entropy(Tensor(logits), labels).item()
        assert got == pytest.approx(want, abs=1e-9)

    def test_out_of_range_label(self):
        with pytest.raises(ContractError):
            cross_entropy(Tensor([[0.0, 0.0]]), [2])

    def test_gradient(self):
        x = ad.parameter(rand((6, 4), 24))
        f = lambda: cross_entropy(x, [0, 1, 2, 3, 0, 1])
        assert finite_difference_check(f, [x], eps=1e-5) < 1e-4


class TestTotalLoss:
    def test_zero_weights_reduce_to_classification(self):
        cl, fd, cd = Tensor(0.7), Tensor(2.0), Tensor(3.0)
        assert total_loss(cl, fd, cd, LossWeights(lam=0.0, gamma=0.0)).item() == 0.7

    def test_hand_value(self):
        got = total_loss(Tensor(1.0), Tensor(2.0), Tensor(3.0), LossWeights(lam=0.5, gamma=0.1))
        assert got.item() == pytest.approx(2.3, abs=1e-15)

    def test_non_finite_term_is_named(self):
        with pytest.raises(NumericError, match="feature discrepancy"):
            total_loss(Tensor(1.0), Tensor(np.inf), Tensor(0.0), LossWeights())
        with pytest.raises(NumericError, match="class discrepancy loss is not finite: cd is nan"):
            total_loss(Tensor(1.0), Tensor(0.0), Tensor(np.nan), LossWeights())

    def test_gradient_is_linear_combination(self):
        rng = np.random.default_rng(25)
        x = ad.parameter(rng.uniform(-1, 1, (4, 3)))
        w = LossWeights(lam=0.5, gamma=0.1)

        def terms():
            cl = ad.tmean(ad.mul(x, x))
            fd = ad.tsum(ad.tabs(x))
            cd = ad.texp(ad.tmean(x))
            return cl, fd, cd

        cl, fd, cd = terms()
        ad.backward(total_loss(cl, fd, cd, w))
        combined = x.grad.copy()

        grads = []
        for pick in range(3):
            x.zero_grad()
            ad.backward(terms()[pick])
            grads.append(x.grad.copy())
        expected = grads[0] + w.lam * grads[1] + w.gamma * grads[2]
        np.testing.assert_allclose(combined, expected, atol=1e-10)

    def test_weight_validation(self):
        with pytest.raises(ContractError):
            LossWeights(lam=-1.0)
        with pytest.raises(ContractError):
            LossWeights(gamma=math.nan)
