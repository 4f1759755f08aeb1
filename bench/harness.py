"""Workloads, set-up, checks and metrics of the msdalab benchmark.

Each workload runs in one process as a closed loop: one caller, and the
next operation starts when the previous one returns. The measured loop
repeats a *cycle* until ``seconds`` have passed:

* train workloads: one ``train_*`` call (2 epochs from the same initial
  weights) followed by ``trainer.evaluate`` on the target test split;
* ``infer_multi3``: for each of the six 800-image domain sets,
  ``trainer.evaluate`` (batch 512, no tape), then a CAM export (predict,
  one heatmap per branch, their aggregate, four PGM files) for each of the
  160 Os test images. Interleaving spreads the CAM work over the run, so
  a short burst of load from elsewhere on the machine moves the latency
  percentiles less. The CAM latency is the mean time per image over each
  group of ``Size.cam_group`` consecutive images (20 images, about 40 ms;
  48 samples a cycle). Per-image times (about 2 ms) put the p90 on the
  scheduler of a shared host: on one machine it spread by 21-29% between
  sets of runs of the same code. The latency covers the computation only;
  the PGM files are written after the 160 images' heatmaps. Creating a
  small file on the test machine's ext4 disk took anywhere from 0.01 to
  0.2 ms, and with the writes interleaved the latency median moved by 15%
  between runs. ``cam_maps_per_s`` and the ``cam.export_pgm`` span
  include them.

Set-up is timed before the loop and repeated ``Size.setups`` times:
``msda generate`` into a temporary directory, ``data.read_dataset`` of the
files the workload uses (each checked against the manifest sha256),
``split``, ``strip_labels`` and ``build_model``; on ``infer_multi3`` also
``save_checkpoint`` and ``load_checkpoint`` of the 3-branch model. The
inference model is the freshly initialised one: forward cost does not
depend on the weight values.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from msdalab import cam, cli, data, model, trainer
from msdalab.autodiff import Tensor

from tracing import CONV, CONV_BWD, Probe, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
TARGET = "Os"
ROSTER = ("Ab", "Bu", "Bo", "Li", "Wi", "Os")
EVAL_BATCH = 512  # trainer.evaluate's fixed batch


@dataclass(frozen=True)
class Workload:
    kind: str  # train | infer
    sources: tuple


WORKLOADS = {
    "train_multi3": Workload("train", ("Ab", "Bu", "Bo")),
    "train_single": Workload("train", ("Ab",)),
    "infer_multi3": Workload("infer", ("Ab", "Bu", "Bo")),
}


@dataclass(frozen=True)
class Size:
    n_per_domain: int = 800
    batch: int = 32
    epochs: int = 2
    cam_images: int = 160
    cam_group: int = 20  # images per CAM latency sample; divides cam_images
    setups: int = 7
    min_latency_samples: int = 100  # per run; ten or more lie beyond the run's p90


FULL = Size()
TINY = Size(n_per_domain=40, batch=4, epochs=1, cam_images=2, cam_group=1,
            setups=1, min_latency_samples=0)

# Driver-facing end-to-end metrics (name -> unit, as in BENCHMARK.json). Every
# workload reports each one, so the names are generic; ``_reported`` maps
# them to the user-facing figures. peak_rss_mb is reported but not gated:
# on train_single it flips between 234 and 319 MB from one process to the
# next, one 85 MiB im2col buffer more or less, with the same seed.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "items/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
}

# the user-facing figures each driver metric stands for, per workload kind
REPORTED = {
    "train": {"setup_s": "s", "train_samples_per_s": "samples/s", "step_ms_p50": "ms",
              "step_ms_p90": "ms", "peak_rss_mb": "MB", "error_rate": "fraction"},
    "infer": {"setup_s": "s", "predict_images_per_s": "images/s", "cam_maps_per_s": "maps/s",
              "cam_image_ms_p50": "ms", "cam_image_ms_p90": "ms", "peak_rss_mb": "MB",
              "error_rate": "fraction"},
}

# Loop layers are given per traced cycle, set-up layers per set-up (see
# _per_layer); MB is 2**20 bytes here and in peak_rss_mb.
PER_LAYER = {
    "autodiff.conv2d.calls": "count",
    "autodiff.conv2d.fwd_s": "s",
    "autodiff.conv2d.bwd_s": "s",
    "autodiff.conv2d.gflop": "GFLOP",
    "autodiff.conv2d.im2col_mb": "MB",
    "autodiff.backward.s": "s",
    "autodiff.backward.self_s": "s",
    "autodiff.tape_records_per_step": "count",
    "losses.mmd_squared.calls": "count",
    "losses.mmd_squared.s": "s",
    "losses.pairwise_sq_dists.calls_per_mmd": "count",
    "losses.coral_loss.s": "s",
    "losses.class_discrepancy.s": "s",
    "losses.cross_entropy.s": "s",
    "model.forward_branch.calls": "count",
    "model.forward_branch.s": "s",
    "model.trunk_passes_per_step": "count",
    "model.predict.s": "s",
    "model.trunk_passes_per_predict": "count",
    "model.checkpoint_io_s": "s",
    "trainer.adam_step.s": "s",
    "trainer.evaluate.calls": "count",
    "trainer.evaluate.s": "s",
    "trainer.self_s": "s",
    "data.generate_domain.s": "s",
    "data.write_dataset.s": "s",
    "data.read_dataset.s": "s",
    "data.split.s": "s",
    "cam.compute_cam.s": "s",
    "cam.aggregate_cams.s": "s",
    "cam.export_pgm.s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace_overhead_frac": "fraction",
}

# Written down before measuring: which end-to-end figure each layer metric
# should move, and where it should not. Copied into every record.
PREDICTIONS = {
    "model.trunk_passes_per_step, autodiff.conv2d.fwd_s":
        "move train_samples_per_s and step_ms_p50 on train_multi3; not on train_single",
    "model.trunk_passes_per_predict": "moves predict_images_per_s on infer_multi3",
    "autodiff.conv2d.bwd_s, autodiff.backward.self_s, autodiff.tape_records_per_step":
        "move step_ms_p50 on both train workloads; nothing on infer_multi3",
    "autodiff.conv2d.im2col_mb": "moves peak_rss_mb, mostly on infer_multi3",
    "losses.*": "move step_ms_p50 more on train_multi3 than train_single, nothing on infer; "
                "under 2% of a step, so a losses-only change shows in self time and counts",
    "trainer.adam_step.s": "moves the train step times; train_multi3 has 3x the branch parameters",
    "trainer.evaluate.s": "moves train_samples_per_s through validation and "
                          "predict_images_per_s on infer_multi3",
    "data.*, cli.*, model.checkpoint_io_s": "move setup_s",
    "cam.*": "move cam_maps_per_s",
}


class SetupError(RuntimeError):
    """Set-up produced data the benchmark cannot trust."""


@dataclass
class Context:
    sources: list       # labeled source sets, full size (the trainer splits them)
    eval_sets: list     # infer: every roster domain, full size
    target: object      # unlabeled target train split
    target_test: object
    model: object
    steps_per_cycle: int
    samples_per_cycle: int
    planned_ops: int


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _batch_sizes(n: int, batch: int) -> list:
    """Batch sizes one training epoch uses over ``n`` rows (trainer skips tails < 2)."""
    sizes = [min(batch, n - lo) for lo in range(0, n, batch)]
    return [s for s in sizes if s >= 2]


def set_up(wl: Workload, seed: int, size: Size) -> Context:
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT_DIR))
    try:
        cfg = tmp / "generate.cfg"
        cfg.write_text(f"output_dir = {tmp}\nn_per_domain = {size.n_per_domain}\n", encoding="ascii")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["generate", "--config", str(cfg), "--seed", str(seed)])
        if rc != 0:
            raise SetupError(f"msda generate exited with {rc}")
        lines = (tmp / "datasets" / "manifest.txt").read_text(encoding="ascii").splitlines()[1:]
        manifest = {parts[0]: parts[3] for parts in (ln.split() for ln in lines)}
        names = ROSTER if wl.kind == "infer" else wl.sources + (TARGET,)
        sets = {}
        for name in names:
            path = tmp / "datasets" / f"{name}.msda"
            if _sha256(path) != manifest.get(name):
                raise SetupError(f"{path.name} does not match its manifest sha256")
            sets[name] = data.read_dataset(path)

        source_splits = [data.split(sets[s], seed) for s in wl.sources]
        target_train, _, target_test = data.split(sets[TARGET], seed, stratified=False)
        target = data.strip_labels(target_train)
        m = model.build_model(len(wl.sources), 2, data.IMAGE_SHAPE, seed=seed)
        if wl.kind == "infer":
            ckpt = tmp / "model.ckpt"
            model.save_checkpoint(m, ckpt)
            m = model.load_checkpoint(ckpt)
            eval_sets = [sets[n] for n in ROSTER]
            steps = samples = 0
            planned = sum(math.ceil(ds.n / EVAL_BATCH) + size.cam_images * (len(wl.sources) + 2)
                          for ds in eval_sets)
        else:
            eval_sets = []
            sizes = _batch_sizes(min(tr.n for tr, _, _ in source_splits), size.batch)
            steps = size.epochs * len(sizes)
            samples = size.epochs * len(wl.sources) * sum(sizes)
            val_batches = sum(math.ceil(va.n / EVAL_BATCH) for _, va, _ in source_splits)
            planned = (steps + size.epochs * val_batches
                       + math.ceil(target_test.n / EVAL_BATCH))
        return Context([sets[s] for s in wl.sources], eval_sets, target, target_test, m,
                       steps, samples, planned)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


class Loop:
    """Per-run accumulators of the measured loop."""

    def __init__(self):
        self.rates: list = []   # items/s of each train call or each evaluate call
        self.cam_ms: list = []  # per image, mean over a group: predict, per-branch maps, aggregate
        self.cam_s = 0.0        # all of that plus writing the PGM files
        self.maps = 0
        self.heatmaps = 0
        self.bad_heatmaps = 0
        self.equivalence: list = []
        self.cycle_ends: list = []  # latency samples taken by the end of each cycle


def _train_cycle(ctx: Context, hp, probe: Probe, loop: Loop, watch) -> dict:
    m = copy.deepcopy(ctx.model)
    watch(m)
    probe.new_train_call()
    steps_before = probe.steps
    t0 = perf_counter()
    if len(ctx.sources) > 1:
        report = trainer.train_multi_source(m, ctx.sources, ctx.target, hp)
    else:
        report = trainer.train_single_source(m, ctx.sources[0], ctx.target, hp)
    loop.rates.append(ctx.samples_per_cycle / (perf_counter() - t0))
    if probe.steps - steps_before != ctx.steps_per_cycle:
        probe.bad_steps += 1  # samples_per_cycle no longer describes the work done
    test_accuracy = trainer.evaluate(m, ctx.target_test)
    per_epoch = [[float(v) for v in st] for st in report.per_epoch]
    if not all(math.isfinite(v) for row in per_epoch for v in row):
        probe.bad_steps += 1
    return {"fields": list(report.per_epoch[0]._fields), "per_epoch": per_epoch,
            "test_accuracy": test_accuracy}


def _infer_cycle(ctx: Context, cam_root: Path, loop: Loop, n_cam: int, group: int,
                 watch) -> dict:
    watch(ctx.model)
    accuracies, pixel_sums = [], []
    for ds in ctx.eval_sets:
        t0 = perf_counter()
        accuracies.append(trainer.evaluate(ctx.model, ds))
        loop.rates.append(ds.n / (perf_counter() - t0))
        # Fresh files every time: on ext4, truncating and rewriting a file
        # that has reached disk forces a flush on close (~50 ms per PGM).
        with tempfile.TemporaryDirectory(dir=cam_root) as cam_dir:
            pixel_sums.append(_explain(ctx, Path(cam_dir), loop, n_cam, group))
    return {"accuracies": accuracies, "cam_pixel_sums": pixel_sums}


def _explain(ctx: Context, cam_dir: Path, loop: Loop, n_cam: int, group: int) -> int:
    """CAM export for the first ``n_cam`` target test images; returns the pixel sum."""
    # all heatmaps first, then all files, so disk work stays out of the latencies
    images = []
    compute_s = 0.0
    for lo in range(0, n_cam, group):
        t0 = perf_counter()
        for i in range(lo, lo + group):
            img = Tensor(ctx.target_test.images[i : i + 1])
            labels, _ = model.predict(ctx.model, img)
            maps = [cam.compute_cam(ctx.model, img, labels[0], j)
                    for j in range(ctx.model.num_sources)]
            maps.append(cam.aggregate_cams(maps))
            images.append((img, maps))
        elapsed = perf_counter() - t0
        compute_s += elapsed
        loop.cam_ms.append(elapsed * 1e3 / group)
    t0 = perf_counter()
    written = []
    for i, (img, maps) in enumerate(images):
        for hm in maps:
            path = cam_dir / f"{i:04d}_{hm.branch}.pgm"
            cam.export_pgm(hm, path)
            written.append((img, hm, path))
    loop.cam_s += compute_s + perf_counter() - t0
    loop.maps += len(written)

    pixel_sum = 0
    for img, hm, path in written:
        loop.heatmaps += 1
        pixels = cam.read_pgm(path)
        ok = (pixels.shape == tuple(img.shape[2:])
              and pixels.min() >= 0 and pixels.max() <= 255
              and 0.0 <= hm.values.min() and hm.values.max() <= 1.0)
        loop.bad_heatmaps += not ok
        pixel_sum += int(pixels.sum())
    return pixel_sum


def _ignore(_model) -> None:
    pass


def _ops(probe: Probe, loop: Loop) -> int:
    return probe.steps + probe.predicts + loop.heatmaps


def _median(xs: list) -> float:
    return statistics.median(xs) if xs else math.nan


def _exact(num: float, den: float):
    """A ratio of counts, as an int when it divides evenly."""
    if den == 0:
        return 0
    r = num / den
    return int(r) if r == int(r) else r


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _blas() -> dict:
    """BLAS library numpy was built with, and the thread count it runs with."""
    info = {"name": "unknown", "threads": None, "config": None}
    try:
        info["name"] = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        pass
    import ctypes
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")) if libdir.is_dir() else []:
        lib = ctypes.CDLL(str(lib_path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    getter.argtypes = []
                    info["threads"] = getter()
                    if config is not None:
                        config.restype = ctypes.c_char_p
                        config.argtypes = []
                        info["config"] = config().decode("ascii", "replace")
                    return info
    return info


def provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "machine": platform.machine(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _measure(wl: Workload, ctx: Context, hp, size: Size, seconds: float, probe: Probe,
             tracer: Tracer | None):
    """The closed loop: whole cycles until ``seconds`` have passed.

    Returns the loop accumulators, cycle wall times keyed by traced or
    not, the operations an exception left undone, and that exception.
    """
    loop = Loop()
    cycle_s = {True: [], False: []}
    undone, error = 0, None
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="cams-", dir=OUT_DIR) as cam_root, probe.installed():
        deadline = perf_counter() + seconds
        while True:
            # a traced run alternates untraced and traced cycles to measure the
            # overhead; the first, coldest cycle is an untraced one
            traced = tracer is not None and len(loop.equivalence) % 2 == 1
            if traced:
                tracer.phase = "cycle"
            watch = tracer.watch if traced else _ignore
            ops_before = _ops(probe, loop)
            t0 = perf_counter()
            try:
                with tracer.installed() if traced else contextlib.nullcontext():
                    if wl.kind == "train":
                        eq = _train_cycle(ctx, hp, probe, loop, watch)
                    else:
                        eq = _infer_cycle(ctx, Path(cam_root), loop, size.cam_images,
                                          size.cam_group, watch)
            except Exception as exc:  # the program failed: the rest of this cycle fails
                error = f"{type(exc).__name__}: {exc}"
                undone = max(ctx.planned_ops - (_ops(probe, loop) - ops_before), 0)
                break
            cycle_s[traced].append(perf_counter() - t0)
            loop.equivalence.append(eq)
            latencies = probe.step_ms if wl.kind == "train" else loop.cam_ms
            loop.cycle_ends.append(len(latencies))
            enough = len(latencies) >= size.min_latency_samples
            both = tracer is None or len(loop.equivalence) >= 2
            if perf_counter() >= deadline and enough and both:
                break
    return loop, cycle_s, undone, error


def _p90_per_cycle(lat: list, cycle_ends: list) -> float:
    """Median over cycles of each cycle's p90 latency.

    A p90 over the whole run flips by 25% between runs of the same code on a
    shared 2-vCPU host: train_single steps read 62-67 ms at p90 when no other
    tenant is busy and 80 ms when a busy spell covers a tenth of the run. A
    spell that slows one train call (or one infer cycle) moves only that
    cycle's p90, and the median over cycles sets it aside; a slower tail in
    the program itself shows in every cycle.
    """
    starts = [0] + cycle_ends[:-1]
    return _median([float(np.percentile(lat[a:b], 90)) for a, b in zip(starts, cycle_ends) if b > a])


def _reported(wl: Workload, setup_s: list, probe: Probe, loop: Loop, error_rate: float):
    """User-facing end-to-end figures, the driver name of each, and the latency sample count."""
    figures = {"setup_s": _median(setup_s), "peak_rss_mb": _peak_rss_mb(),
               "error_rate": error_rate}
    if wl.kind == "train":
        rate, lat = "train_samples_per_s", probe.step_ms
        p50, p90 = "step_ms_p50", "step_ms_p90"
    else:
        rate, lat = "predict_images_per_s", loop.cam_ms
        p50, p90 = "cam_image_ms_p50", "cam_image_ms_p90"
        figures["cam_maps_per_s"] = loop.maps / loop.cam_s if loop.cam_s else math.nan
    figures[rate] = _median(loop.rates)
    figures[p50] = float(np.percentile(lat or [math.nan], 50))
    figures[p90] = _p90_per_cycle(lat, loop.cycle_ends)
    source = {"setup_s": "setup_s", "throughput_per_s": rate, "op_ms_p50": p50, "op_ms_p90": p90}
    return figures, source, len(lat)


def run(name: str, seed: int, seconds: float, trace: bool, size: Size = FULL) -> dict:
    """Run one workload; return the full record (see ``result_line`` for the driver view)."""
    wl = WORKLOADS[name]
    t_run = perf_counter()
    probe = Probe()
    tracer = Tracer() if trace else None
    hp = trainer.HyperParams(batch=size.batch, epochs=size.epochs, seed=seed)

    setup_s = []
    try:
        for _ in range(size.setups):
            t0 = perf_counter()
            with tracer.installed() if trace else contextlib.nullcontext():
                ctx = set_up(wl, seed, size)
            setup_s.append(perf_counter() - t0)
    except Exception as exc:  # untrusted data or a program failure: nothing is measured
        loop, cycle_s = Loop(), {True: [], False: []}
        undone, error = 1, f"set-up: {type(exc).__name__}: {exc}"
    else:
        loop, cycle_s, undone, error = _measure(wl, ctx, hp, size, seconds, probe, tracer)
    attempted = max(_ops(probe, loop) + undone, 1)
    failed = undone + probe.bad_steps + probe.bad_predicts + loop.bad_heatmaps

    first = loop.equivalence[0] if loop.equivalence else None
    equivalence = {
        "first_cycle": first,
        "repeat_identical": all(eq == first for eq in loop.equivalence),
        "digest": hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest(),
    }
    figures, source, samples = _reported(wl, setup_s, probe, loop, failed / attempted)

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size.__dict__,
        "cycles": len(cycle_s[True]) + len(cycle_s[False]),
        "latency_samples": samples,
        "setup_s_all": setup_s,
        "error": error,
        "correct": failed == 0 and error is None,
        "attempted": attempted,
        "failed": failed,
        "reported": {k: {"value": v, "unit": REPORTED[wl.kind][k]} for k, v in figures.items()},
        "equivalence": equivalence,
        "provenance": provenance(),
        "predictions": PREDICTIONS,
    }
    if trace:
        record["metrics"] = _per_layer(tracer, cycle_s, size.setups)
        spans_path = OUT_DIR / f"{name}-seed{seed}-spans.jsonl"
        tracer.write_spans(spans_path, t_run)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        record["metrics"] = {k: {"value": figures[source[k]], "unit": unit}
                             for k, unit in END_TO_END.items()}
        record["metric_sources"] = source
    record["provenance"]["peak_rss_mb"] = _peak_rss_mb()
    return record


def _per_layer(tracer: Tracer, cycle_s: dict, setups: int) -> dict:
    """Per-layer figures: loop layers per traced cycle, set-up layers per set-up."""
    cyc = tracer.totals("cycle")
    setup = tracer.totals("setup")
    n = max(len(cycle_s[True]), 1)
    c = tracer.counts

    def total(name, where=cyc, per=n):
        return where.get(name, (0, 0.0, 0.0))[1] / per

    def own(name, where=cyc, per=n):
        return where.get(name, (0, 0.0, 0.0))[2] / per

    def calls(name):
        return _exact(cyc.get(name, (0, 0.0, 0.0))[0], n)

    tape = tracer.tape_records
    values = {
        "autodiff.conv2d.calls": calls(CONV),
        "autodiff.conv2d.fwd_s": total(CONV),
        "autodiff.conv2d.bwd_s": total(CONV_BWD),
        "autodiff.conv2d.gflop": (c["conv_fwd_flop"] + c["conv_bwd_flop"]) / 1e9 / n,
        "autodiff.conv2d.im2col_mb": c["conv_col_bytes"] / 2**20 / n,
        "autodiff.backward.s": total("autodiff.backward"),
        "autodiff.backward.self_s": own("autodiff.backward"),
        "autodiff.tape_records_per_step": _exact(sum(tape), len(tape)),
        "losses.mmd_squared.calls": calls("losses.mmd_squared"),
        "losses.mmd_squared.s": total("losses.mmd_squared"),
        "losses.pairwise_sq_dists.calls_per_mmd": _exact(c["pairwise_in_mmd"],
                                                         c["losses.mmd_squared"]),
        "losses.coral_loss.s": total("losses.coral_loss"),
        "losses.class_discrepancy.s": total("losses.class_discrepancy"),
        "losses.cross_entropy.s": total("losses.cross_entropy"),
        "model.forward_branch.calls": calls("model.forward_branch"),
        "model.forward_branch.s": total("model.forward_branch"),
        "model.trunk_passes_per_step": _exact(c["trunk_in_step"], c["trainer.adam_step"]),
        "model.predict.s": total("model.predict"),
        "model.trunk_passes_per_predict": _exact(c["trunk_in_predict"], c["model.predict"]),
        "model.checkpoint_io_s": (total("model.save_checkpoint", setup, setups)
                                  + total("model.load_checkpoint", setup, setups)),
        "trainer.adam_step.s": total("trainer.adam_step"),
        "trainer.evaluate.calls": calls("trainer.evaluate"),
        "trainer.evaluate.s": total("trainer.evaluate"),
        "trainer.self_s": own("trainer.train"),
        "data.generate_domain.s": total("data.generate_domain", setup, setups),
        "data.write_dataset.s": total("data.write_dataset", setup, setups),
        "data.read_dataset.s": total("data.read_dataset", setup, setups),
        "data.split.s": total("data.split", setup, setups),
        "cam.compute_cam.s": total("cam.compute_cam"),
        "cam.aggregate_cams.s": total("cam.aggregate_cams"),
        "cam.export_pgm.s": total("cam.export_pgm"),
        "cli.main.s": total("cli.main", setup, setups),
        "cli.main.self_s": own("cli.main", setup, setups),
        "trace_overhead_frac": _median(cycle_s[True]) / _median(cycle_s[False]) - 1.0,
    }
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def result_line(record: dict) -> str:
    """The driver-facing last line of standard output.

    A figure that could not be measured (no cycle completed) is written as
    0 and the run is marked incorrect, since JSON has no NaN.
    """
    metrics = {k: dict(m) for k, m in record["metrics"].items()}
    correct = record["correct"]
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
            correct = False
    return json.dumps({"correct": correct, "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def write_record(record: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="ascii")
    return path

