"""Trainer tests: Adam math, protocol reductions, determinism, firewall.

Training runs here are deliberately tiny (tens of images, two or three
epochs) so the whole module stays fast.
"""

import math

import numpy as np
import pytest

from msdalab import autodiff as ad
from msdalab import trainer
from msdalab.autodiff import ContractError, Tensor
from msdalab.cli import UsageError, parse_config
from msdalab.data import LabeledSet, default_roster, generate_domain, split, strip_labels
from msdalab.losses import LossWeights, NumericError, cross_entropy
from msdalab.model import build_model, forward_branch
from msdalab.trainer import (
    AdamState,
    HyperParams,
    adam_step,
    evaluate,
    render_runs_csv,
    render_summary_csv,
    run_protocol,
    run_protocol_suite,
    train_multi_source,
    train_single_source,
    train_source_combined,
)

ROSTER = {s.name: s for s in default_roster()}


def tiny_hp(**kw):
    base = dict(epochs=2, batch=8, seed=0, weights=LossWeights(lam=0.1, gamma=0.1))
    base.update(kw)
    return HyperParams(**base)


def domain(name, n=60, seed=0):
    return generate_domain(ROSTER[name], n, seed)


def unlabeled_target(name="Os", n=60, seed=1):
    train, _, test = split(domain(name, n, seed), 0)
    return strip_labels(train), test


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = ad.parameter([1.0, -2.0, 3.0])
        before = p.data.copy()
        state = AdamState.for_params([p])
        adam_step([p], [np.zeros(3)], state, HyperParams(), 1)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_closed_form(self):
        hp = HyperParams(lr=0.001)
        g = np.array([0.3, -0.7, 2.0])
        p = ad.parameter(np.zeros(3))
        adam_step([p], [g], AdamState.for_params([p]), hp, 1)
        expected = -hp.lr * g / (np.abs(g) + hp.adam_eps)
        np.testing.assert_allclose(p.data, expected, atol=1e-6)
        np.testing.assert_allclose(np.abs(p.data), np.full(3, hp.lr), rtol=1e-4)

    def test_constant_gradient_monotone_descent(self):
        hp = HyperParams(lr=0.01)
        p = ad.parameter([0.0])
        state = AdamState.for_params([p])
        g = np.array([0.5])
        history = [p.data.item()]
        for t in range(1, 101):
            adam_step([p], [g], state, hp, t)
            history.append(p.data.item())
        diffs = np.diff(history)
        assert np.all(diffs < 0.0)

    def test_step_index_validated(self):
        p = ad.parameter([1.0])
        with pytest.raises(ContractError):
            adam_step([p], [np.ones(1)], AdamState.for_params([p]), HyperParams(), 0)

    def test_shape_mismatch(self):
        p = ad.parameter([1.0, 2.0])
        from msdalab.autodiff import ShapeError

        with pytest.raises(ShapeError):
            adam_step([p], [np.ones(3)], AdamState.for_params([p]), HyperParams(), 1)


class TestEvaluate:
    def test_perfect_and_chance(self):
        target, test = unlabeled_target()
        model = build_model(1, 2, seed=0)
        acc = evaluate(model, test)
        assert 0.0 <= acc <= 1.0

    def test_deterministic(self):
        _, test = unlabeled_target()
        model = build_model(2, 2, seed=3)
        assert evaluate(model, test) == evaluate(model, test)

    def test_empty_set_rejected(self):
        model = build_model(1, 2, seed=0)
        empty = LabeledSet(np.zeros((0, 1, 28, 28)), np.zeros(0, dtype=np.int64), "e")
        with pytest.raises(ContractError):
            evaluate(model, empty)

    def test_perfect_oracle_scores_one(self):
        # train until the model memorizes a tiny set, then evaluate on it
        ds = domain("Ab", 40)
        model = build_model(1, 2, seed=0)
        target, _ = unlabeled_target("Bu", 40)
        hp = tiny_hp(epochs=30, weights=LossWeights(lam=0.0, gamma=0.0))
        train_single_source(model, ds, target, hp)
        train_part, _, _ = split(ds, hp.seed)
        assert evaluate(model, train_part) >= 0.95


class TestProtocols:
    def test_multi_needs_two_sources(self):
        target, _ = unlabeled_target()
        with pytest.raises(ContractError):
            train_multi_source(build_model(1, 2, seed=0), [domain("Ab")], target, tiny_hp())

    def test_model_arity_must_match(self):
        target, _ = unlabeled_target()
        with pytest.raises(ContractError):
            train_multi_source(
                build_model(3, 2, seed=0), [domain("Ab"), domain("Bu")], target, tiny_hp()
            )

    def test_single_needs_one_branch(self):
        target, _ = unlabeled_target()
        with pytest.raises(ContractError):
            train_single_source(build_model(2, 2, seed=0), domain("Ab"), target, tiny_hp())

    def test_report_bookkeeping(self):
        target, test = unlabeled_target()
        hp = tiny_hp()
        model = build_model(1, 2, seed=0)
        report = train_source_combined(model, [domain("Ab"), domain("Bu")], target, hp)
        assert report.protocol == "combined"
        assert report.source_names == ["Ab", "Bu"]
        assert report.target_name == "Os"
        assert len(report.per_epoch) == hp.epochs
        for st in report.per_epoch:
            assert math.isfinite(st.cl) and math.isfinite(st.total)
            assert st.fd >= 0.0 and st.cd >= 0.0
            assert 0.0 <= st.val_accuracy <= 1.0

    def test_single_ignores_gamma(self):
        target, _ = unlabeled_target()
        runs = []
        for gamma in (0.0, 5.0):
            model = build_model(1, 2, seed=0)
            hp = tiny_hp(weights=LossWeights(lam=0.1, gamma=gamma))
            train_single_source(model, domain("Ab"), target, hp)
            runs.append([p.data.copy() for p in model.parameters()])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_multi_loss_components_logged(self):
        target, _ = unlabeled_target()
        model = build_model(2, 2, seed=0)
        report = train_multi_source(model, [domain("Ab"), domain("Bu")], target, tiny_hp())
        assert any(st.fd > 0.0 for st in report.per_epoch)
        assert any(st.cd > 0.0 for st in report.per_epoch)

    def test_zero_weights_match_pure_supervised_training(self):
        """lam = gamma = 0 must reproduce plain per-branch supervised
        training step for step, reimplemented here independently."""
        sources = [domain("Ab", 40), domain("Bu", 40, seed=2)]
        target, _ = unlabeled_target()
        hp = tiny_hp(weights=LossWeights(lam=0.0, gamma=0.0))

        model = build_model(2, 2, seed=5)
        train_multi_source(model, sources, target, hp)

        # independent supervised loop with the same seeds and batch order
        from msdalab.data import epoch_permutation

        ref = build_model(2, 2, seed=5)
        params = ref.parameters()
        state = AdamState.for_params(params)
        splits = [split(s, hp.seed) for s in sources]
        trains = [s[0] for s in splits]
        min_n = min(t.n for t in trains)
        iters = math.ceil(min_n / hp.batch)
        step = 0
        for epoch in range(hp.epochs):
            perms = [
                epoch_permutation(t.n, f"src:{t.domain_name}:{j}", hp.seed, epoch)
                for j, t in enumerate(trains)
            ]
            for it in range(iters):
                lo = it * hp.batch
                size = min(hp.batch, min_n - lo)
                if size < 2:
                    continue
                with ad.scoped_tape():
                    terms = []
                    for j, t in enumerate(trains):
                        rows = perms[j][lo : lo + size]
                        out = forward_branch(ref, Tensor(t.images[rows]), j)
                        terms.append(cross_entropy(out.logits, t.labels[rows]))
                    loss = ad.mul(ad.add(terms[0], terms[1]), 0.5)
                    ad.zero_grads(params)
                    ad.backward(loss)
                    step += 1
                    adam_step(params, [p.grad for p in params], state, hp, step)
        for a, b in zip(model.parameters(), ref.parameters()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_full_determinism(self):
        sources = [domain("Ab", 40), domain("Bu", 40)]
        target, test = unlabeled_target()
        results = []
        for _ in range(2):
            model = build_model(2, 2, seed=1)
            report = train_multi_source(model, sources, target, tiny_hp())
            results.append((report.per_epoch, [p.data.copy() for p in model.parameters()]))
        assert results[0][0] == results[1][0]
        for a, b in zip(results[0][1], results[1][1]):
            np.testing.assert_array_equal(a, b)

    def test_target_label_firewall(self):
        """Permuting target labels must not change a single trained bit,
        including through the (unstratified) target split."""
        sources = [domain("Ab", 40), domain("Bu", 40)]
        full_target = domain("Os", 60, seed=1)
        weights = []
        for permute in (False, True):
            tgt = full_target
            if permute:
                rng = np.random.default_rng(99)
                tgt = LabeledSet(tgt.images, rng.permutation(tgt.labels), tgt.domain_name)
            train, _, _ = split(tgt, 0, stratified=False)
            model = build_model(2, 2, seed=2)
            train_multi_source(model, sources, strip_labels(train), tiny_hp())
            weights.append(np.concatenate([p.data.ravel() for p in model.parameters()]))
        np.testing.assert_array_equal(weights[0], weights[1])

    def test_non_finite_term_stops_before_the_update(self, monkeypatch):
        monkeypatch.setattr(trainer, "feature_discrepancy",
                            lambda src, tgt, kernel: ad.mul(ad.tsum(src), float("nan")))
        sources = [domain("Ab", 40), domain("Bu", 40)]
        target, _ = unlabeled_target()
        model = build_model(2, 2, seed=3)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(NumericError, match="fd is nan"):
            train_multi_source(model, sources, target, tiny_hp())
        for a, p in zip(before, model.parameters()):
            np.testing.assert_array_equal(a, p.data)

    def test_classification_loss_descends(self):
        # the total (with ramped alignment weights) is checked on the full
        # benchmark in the acceptance suite; here just require learning
        sources = [domain("Ab", 100), domain("Bu", 100)]
        target, _ = unlabeled_target("Os", 100)
        model = build_model(2, 2, seed=0)
        report = train_multi_source(model, sources, target, tiny_hp(epochs=12, batch=16))
        assert report.per_epoch[-1].cl < report.per_epoch[0].cl

    def test_run_protocol_rejects_unknown_protocol(self):
        target, test = unlabeled_target()
        with pytest.raises(ContractError, match="unknown protocol 'joint'"):
            run_protocol("joint", [domain("Ab", 40)], target, test, tiny_hp())


@pytest.fixture(scope="module")
def result():
    hp = HyperParams(epochs=1, batch=8, seed=0, weights=LossWeights(lam=0.05, gamma=0.05))
    sources = {name: domain(name, 40) for name in ROSTER if name != "Os"}
    train, _, test = split(domain("Os", 40), 0, stratified=False)
    return run_protocol_suite(sources, strip_labels(train), test, hp)


class TestSuite:

    def test_enumeration_counts(self, result):
        assert len(result.runs) == 21
        by_method = {}
        for r in result.runs:
            by_method.setdefault(r.method, []).append(r)
        assert len(by_method["single"]) == 1
        assert len(by_method["combined2"]) == len(by_method["multi2"]) == 4
        assert len(by_method["combined3"]) == len(by_method["multi3"]) == 6

    def test_anchor_in_every_run(self, result):
        assert result.anchor == "Ab"
        for r in result.runs:
            assert r.source_names[0] == "Ab"
            assert "Os" not in r.source_names

    def test_five_method_averages(self, result):
        assert list(result.method_averages) == [
            "single", "combined2", "combined3", "multi2", "multi3",
        ]

    def test_runs_csv_shape(self, result):
        lines = render_runs_csv(result).strip().splitlines()
        assert lines[0] == "protocol,target,sources,accuracy,seed"
        assert len(lines) == 1 + 21 + 5
        for line in lines[1:22]:
            fields = line.split(",")
            assert fields[0] in ("single", "combined", "multi")
            assert fields[1] == "Os"
            assert 0.0 <= float(fields[3]) <= 100.0

    def test_summary_csv_averages_match_runs(self, result):
        lines = render_summary_csv(result).strip().splitlines()
        assert lines[0] == "method,average"
        assert len(lines) == 6
        runs = render_runs_csv(result).strip().splitlines()[1:22]
        per_method = {}
        for line in runs:
            proto, _, sources, acc, _ = line.split(",")
            key = proto if proto == "single" else f"{proto}{len(sources.split('+'))}"
            per_method.setdefault(key, []).append(float(acc))
        for line in lines[1:]:
            method, avg = line.split(",")
            assert abs(float(avg) - np.mean(per_method[method])) <= 0.005

    def test_roster_too_small(self):
        sources = {name: domain(name, 40) for name in ("Ab", "Bu")}
        with pytest.raises(ContractError, match=">= 3 non-target domains, got 2"):
            run_protocol_suite(sources, *unlabeled_target(n=40), HyperParams())

    def test_unknown_target(self):
        # the suite takes loaded sets; an unknown target name stops at the config
        with pytest.raises(UsageError, match="target 'Zz' not in roster"):
            parse_config("target = Zz\n")

    def test_anchor_must_be_a_source(self):
        sources = {name: domain(name, 40) for name in ("Ab", "Bu", "Bo")}
        with pytest.raises(ContractError, match="anchor 'Os' must be a non-target roster domain"):
            run_protocol_suite(sources, *unlabeled_target(n=40), HyperParams(), anchor="Os")
