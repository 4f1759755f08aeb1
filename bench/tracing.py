"""Spans and counters recorded around msdalab's module boundaries.

Nothing under ``src/`` is edited: each layer is measured by replacing, for
the duration of a ``with`` block, the module attribute through which
another module calls it (``msdalab.model.conv2d``, ``msdalab.trainer.backward``,
``msdalab.losses.mmd_squared`` ...), and restoring it afterwards.

Two kinds of wrapper exist:

* ``Probe`` is always installed. It times training steps, checks every
  step's loss and every prediction batch, and costs one function call per
  step or batch, so it is also present in untraced runs.
* ``Tracer`` records one span per call (name, start, end, parent span,
  phase) and the exact counts the benchmark reports. Spans stay in memory
  until ``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import math
from collections import Counter
from time import perf_counter

import numpy as np

from msdalab import autodiff, cam, cli, data, losses, model, trainer


@contextlib.contextmanager
def patched(replacements):
    """Set ``module.attr = value`` for each triple; restore on exit."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    for mod, attr, value in replacements:
        setattr(mod, attr, value)
    try:
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)


class Probe:
    """Step clock and output checks used by every run, traced or not.

    ``step_ms`` holds the time between consecutive ``adam_step`` returns
    within one train call, minus the ``trainer.evaluate`` time between
    them (per-epoch validation). Operations are training steps and
    prediction batches; ``failed`` counts those whose output is wrong.
    """

    def __init__(self):
        self.step_ms: list[float] = []
        self.steps = 0
        self.bad_steps = 0
        self.predicts = 0
        self.bad_predicts = 0
        self._last_step = None
        self._eval_since = 0.0

    def new_train_call(self) -> None:
        self._last_step = None
        self._eval_since = 0.0

    def installed(self):
        adam, evaluate, backward, predict = (
            trainer.adam_step, trainer.evaluate, trainer.backward, trainer.predict)

        def timed_adam(*args, **kwargs):
            out = adam(*args, **kwargs)
            now = perf_counter()
            if self._last_step is not None:
                self.step_ms.append((now - self._last_step - self._eval_since) * 1e3)
            self._last_step = now
            self._eval_since = 0.0
            self.steps += 1
            return out

        def timed_evaluate(*args, **kwargs):
            t0 = perf_counter()
            try:
                return evaluate(*args, **kwargs)
            finally:
                self._eval_since += perf_counter() - t0

        def checked_backward(loss):
            if not math.isfinite(loss.item()):
                self.bad_steps += 1
            return backward(loss)

        def checked_predict(m, x):
            labels, avg = predict(m, x)
            self.predicts += 1
            ok = (len(labels) == x.shape[0]
                  and all(0 <= lbl < m.num_classes for lbl in labels)
                  and np.all(np.abs(avg.data.sum(axis=1) - 1.0) <= 1e-6))
            if not ok:
                self.bad_predicts += 1
            return labels, avg

        return patched([
            (trainer, "adam_step", timed_adam),
            (trainer, "evaluate", timed_evaluate),
            (trainer, "backward", checked_backward),
            (trainer, "predict", checked_predict),
            (model, "predict", checked_predict),
        ])


# (module, attribute, span name): the call sites each layer is entered through
_SITES = (
    (trainer, "backward", "autodiff.backward"),
    (trainer, "cross_entropy", "losses.cross_entropy"),
    (trainer, "feature_discrepancy", "losses.feature_discrepancy"),
    (trainer, "class_discrepancy", "losses.class_discrepancy"),
    (losses, "mmd_squared", "losses.mmd_squared"),
    (losses, "coral_loss", "losses.coral_loss"),
    (losses, "pairwise_sq_dists", "losses.pairwise_sq_dists"),
    (trainer, "forward_branch", "model.forward_branch"),
    (model, "forward_branch", "model.forward_branch"),
    (trainer, "predict", "model.predict"),
    (model, "predict", "model.predict"),
    (model, "save_checkpoint", "model.save_checkpoint"),
    (model, "load_checkpoint", "model.load_checkpoint"),
    (trainer, "adam_step", "trainer.adam_step"),
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "train_multi_source", "trainer.train"),
    (trainer, "train_single_source", "trainer.train"),
    (trainer, "split", "data.split"),
    (data, "split", "data.split"),
    (data, "read_dataset", "data.read_dataset"),
    (cli, "generate_domain", "data.generate_domain"),
    (cli, "write_dataset", "data.write_dataset"),
    (cli, "main", "cli.main"),
    (cam, "compute_cam", "cam.compute_cam"),
    (cam, "aggregate_cams", "cam.aggregate_cams"),
    (cam, "export_pgm", "cam.export_pgm"),
)

CONV = "autodiff.conv2d"
CONV_BWD = "autodiff.conv2d.bwd"


class Tracer:
    """In-memory span recorder plus the exact counts named by the benchmark.

    A span is ``[name, start, end, parent index, phase]``; ``phase`` is
    whatever string ``self.phase`` held when the span opened ("setup" or
    "cycle"). Calls are single-threaded, so spans nest strictly.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.phase = "setup"
        self.counts = Counter()
        self.tape_records: list[int] = []
        self.trunk_kernel = None  # the watched model's shared.conv1.weight
        self._stack: list[int] = []
        self._open = Counter()

    def watch(self, m) -> None:
        """Count trunk passes as conv2d calls on this model's first kernel."""
        self.trunk_kernel = m["shared.conv1.weight"]

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.phase])
        self._stack.append(idx)
        self._open[name] += 1
        return idx

    def _exit(self, idx: int) -> None:
        span = self.spans[idx]
        span[2] = perf_counter()
        self._stack.pop()
        self._open[span[0]] -= 1

    def _wrap(self, name: str, fn):
        counts = self.counts

        def spanned(*args, **kwargs):
            counts[name] += 1
            if name == "losses.pairwise_sq_dists" and self._open["losses.mmd_squared"]:
                counts["pairwise_in_mmd"] += 1
            elif name == "autodiff.backward":
                self.tape_records.append(len(autodiff.active_tape()))
            idx = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(idx)

        return spanned

    def _wrap_conv(self, fn):
        counts = self.counts

        def timed_adjoint(adjoint, flop, col_bytes):
            def run(g):
                counts["conv_bwd_flop"] += flop
                counts["conv_col_bytes"] += col_bytes
                idx = self._enter(CONV_BWD)
                try:
                    return adjoint(g)
                finally:
                    self._exit(idx)
            return run

        def conv(x, kernel, stride=1):
            counts[CONV] += 1
            if kernel is self.trunk_kernel:
                if self._open["model.predict"]:
                    counts["trunk_in_predict"] += 1
                if self._open["trainer.train"] and not self._open["trainer.evaluate"]:
                    counts["trunk_in_step"] += 1
            idx = self._enter(CONV)
            try:
                out = fn(x, kernel, stride)
            finally:
                self._exit(idx)
            b, cin, h, w = x.shape
            cout, _, kh, kw = kernel.shape
            oh, ow = out.shape[2:]
            taps = cin * kh * kw
            counts["conv_fwd_flop"] += 2 * b * oh * ow * cout * taps
            counts["conv_col_bytes"] += 8 * b * oh * ow * taps
            if out.requires_grad:
                rec = autodiff.active_tape().records[-1]
                if rec.out is out:
                    # adjoint cost by the shapes (the model convolves at stride 1):
                    # dK when the kernel is tracked, dX when x is
                    flop = 2 * b * oh * ow * cout * taps if kernel.requires_grad else 0
                    cols = 0
                    if x.requires_grad:
                        flop += 2 * b * h * w * cout * kh * kw * cin
                        cols = 8 * b * h * w * cout * kh * kw
                    rec.fn = timed_adjoint(rec.fn, flop, cols)
            return out

        return conv

    def installed(self):
        """Install every span wrapper; restore the real functions on exit."""
        reps = [(mod, attr, self._wrap(name, getattr(mod, attr))) for mod, attr, name in _SITES]
        reps.append((model, "conv2d", self._wrap_conv(model.conv2d)))
        return patched(reps)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def totals(self, phase: str) -> dict:
        """name -> (calls, total seconds, self seconds) over one phase."""
        out: dict = {}
        for (name, start, end, _, ph), own in zip(self.spans, self.self_times()):
            if ph != phase:
                continue
            calls, total, self_s = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), self_s + own)
        return out

    def write_spans(self, path, t0: float) -> None:
        """One JSON object per line; times are seconds from ``t0``."""
        with open(path, "w", encoding="ascii") as fh:
            for i, (name, start, end, parent, phase) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - t0,
                                     "end": end - t0, "parent": parent, "phase": phase}) + "\n")
