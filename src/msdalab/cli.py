"""Command-line entry point: generate | train | suite | cam.

Configuration is a flat key=value text file with dotted keys and '#'
comments, for example:

    target = Os
    protocol = multi
    sources = Ab,Bu
    output_dir = out
    hyper.epochs = 10
    hyper.lambda = 0.5
    roster.Ab.blur_radius = 0.35

Any roster.<name>.<field> key overrides that field of the default roster
(unknown names create a new domain from field defaults). Exit codes:
0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .autodiff import Tensor
from .cam import aggregate_cams, compute_cams, export_pgm
from .data import (
    DomainSpec,
    default_roster,
    generate_domain,
    read_dataset,
    split,
    strip_labels,
    write_dataset,
)
from .losses import KernelConfig, LossWeights
from .model import build_model, load_checkpoint, save_checkpoint, predict
from .trainer import (
    HyperParams,
    evaluate,
    render_runs_csv,
    render_summary_csv,
    run_protocol_suite,
    train_multi_source,
    train_single_source,
    train_source_combined,
)

PROTOCOLS = ("single", "combined", "multi")
_ROSTER_FIELDS = ("background_level", "blur_radius", "noise_sigma", "rotation_degrees", "glyph_contrast")


class UsageError(ValueError):
    """Bad flags or config; maps to exit code 1."""


@dataclass
class RunConfig:
    roster: list = field(default_factory=default_roster)
    target: str = "Os"
    protocol: str = "multi"
    sources: list = field(default_factory=lambda: ["Ab", "Bu"])
    hyper: HyperParams = field(default_factory=HyperParams)
    output_dir: str = "out"
    export_cams: bool = False
    n_per_domain: int = 800
    anchor: str | None = None
    n_images: int = 8

    def validate(self) -> "RunConfig":
        names = [s.name for s in self.roster]
        if len(set(names)) != len(names):
            raise UsageError("roster names must be unique")
        if self.protocol not in PROTOCOLS:
            raise UsageError(f"protocol must be one of {PROTOCOLS}, got {self.protocol!r}")
        if self.target not in names:
            raise UsageError(f"target {self.target!r} not in roster {names}")
        for s in self.sources:
            if s not in names:
                raise UsageError(f"source {s!r} not in roster {names}")
        if self.target in self.sources:
            raise UsageError(f"target {self.target!r} cannot also be a source")
        if self.anchor is not None and self.anchor not in names:
            raise UsageError(f"anchor {self.anchor!r} not in roster")
        if self.n_per_domain < 10 or self.n_per_domain % 2:
            raise UsageError("n_per_domain must be even and >= 10")
        if self.n_images < 0:
            raise UsageError("n_images must be >= 0")
        return self


def _parse_bool(raw: str, key: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise UsageError(f"{key} must be a boolean, got {raw!r}")


def parse_config(text: str) -> RunConfig:
    """Parse the flat key=value format into a validated RunConfig."""
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"config line {lineno}: expected key = value, got {line!r}")
        key, value = body.split("=", 1)
        entries[key.strip()] = value.strip()

    roster = {s.name: s for s in default_roster()}
    order = list(roster)
    hyper_kw: dict = {}
    weights_kw: dict = {}
    kernel_kw: dict = {}
    cfg_kw: dict = {}

    for key, raw in entries.items():
        try:
            if key.startswith("roster."):
                _, name, fieldname = key.split(".", 2)
                if fieldname not in _ROSTER_FIELDS:
                    raise UsageError(f"unknown roster field {fieldname!r}")
                if name not in roster:
                    roster[name] = DomainSpec(name)
                    order.append(name)
                roster[name] = replace(roster[name], **{fieldname: float(raw)})
            elif key == "hyper.lambda":
                weights_kw["lam"] = float(raw)
            elif key == "hyper.gamma":
                weights_kw["gamma"] = float(raw)
            elif key == "hyper.kernel.multipliers":
                kernel_kw["bandwidth_multipliers"] = tuple(float(v) for v in raw.split(","))
            elif key == "hyper.kernel.bandwidth":
                kernel_kw["base_bandwidth"] = None if raw == "median" else float(raw)
            elif key in ("hyper.lr", "hyper.beta1", "hyper.beta2", "hyper.adam_eps"):
                hyper_kw[key.split(".", 1)[1]] = float(raw)
            elif key in ("hyper.batch", "hyper.epochs", "hyper.seed"):
                hyper_kw[key.split(".", 1)[1]] = int(raw)
            elif key == "sources":
                cfg_kw["sources"] = [s.strip() for s in raw.split(",") if s.strip()]
            elif key in ("target", "protocol", "output_dir"):
                cfg_kw[key] = raw
            elif key == "anchor":
                cfg_kw["anchor"] = raw or None
            elif key == "export_cams":
                cfg_kw["export_cams"] = _parse_bool(raw, key)
            elif key in ("n_per_domain", "n_images"):
                cfg_kw[key] = int(raw)
            else:
                raise UsageError(f"unknown config key {key!r}")
        except ValueError as exc:
            if isinstance(exc, UsageError):
                raise
            raise UsageError(f"bad value for {key}: {raw!r} ({exc})") from exc

    hyper = HyperParams(
        weights=LossWeights(**weights_kw), kernel=KernelConfig(**kernel_kw), **hyper_kw
    )
    cfg = RunConfig(roster=[roster[n] for n in order], hyper=hyper, **cfg_kw)
    return cfg.validate()


def serialize_config(cfg: RunConfig) -> str:
    """Emit every setting in a stable order; parse(serialize(c)) == c."""
    h, w, k = cfg.hyper, cfg.hyper.weights, cfg.hyper.kernel
    lines = [
        "# msda run configuration",
        f"target = {cfg.target}",
        f"protocol = {cfg.protocol}",
        f"sources = {','.join(cfg.sources)}",
        f"output_dir = {cfg.output_dir}",
        f"export_cams = {str(cfg.export_cams).lower()}",
        f"n_per_domain = {cfg.n_per_domain}",
        f"n_images = {cfg.n_images}",
    ]
    if cfg.anchor is not None:
        lines.append(f"anchor = {cfg.anchor}")
    lines += [
        f"hyper.lr = {h.lr!r}",
        f"hyper.beta1 = {h.beta1!r}",
        f"hyper.beta2 = {h.beta2!r}",
        f"hyper.adam_eps = {h.adam_eps!r}",
        f"hyper.batch = {h.batch}",
        f"hyper.epochs = {h.epochs}",
        f"hyper.seed = {h.seed}",
        f"hyper.lambda = {w.lam!r}",
        f"hyper.gamma = {w.gamma!r}",
        "hyper.kernel.multipliers = " + ",".join(repr(m) for m in k.bandwidth_multipliers),
        "hyper.kernel.bandwidth = "
        + ("median" if k.base_bandwidth is None else repr(k.base_bandwidth)),
    ]
    for s in cfg.roster:
        for fieldname in _ROSTER_FIELDS:
            lines.append(f"roster.{s.name}.{fieldname} = {getattr(s, fieldname)!r}")
    return "\n".join(lines) + "\n"


def load_config(path, seed_override: int | None = None) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    cfg = parse_config(text)
    if seed_override is not None:
        cfg = replace(cfg, hyper=replace(cfg.hyper, seed=seed_override))
    return cfg


# ---------------------------------------------------------------------------
# commands


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _dataset_dir(cfg: RunConfig) -> Path:
    return Path(cfg.output_dir) / "datasets"


def _manifest_path(cfg: RunConfig) -> Path:
    return _dataset_dir(cfg) / "manifest.txt"


def cmd_generate(cfg: RunConfig) -> int:
    out = _dataset_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["MSDAMANIFEST 1"]
    for spec in cfg.roster:
        ds = generate_domain(spec, cfg.n_per_domain, cfg.hyper.seed)
        path = out / f"{spec.name}.msda"
        write_dataset(ds, path)
        lines.append(f"{spec.name} {cfg.n_per_domain} {cfg.hyper.seed} {_sha256(path)}")
        print(f"wrote {path}")
    _manifest_path(cfg).write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {_manifest_path(cfg)}")
    return 0


def _load_verified(cfg: RunConfig, name: str):
    manifest = _manifest_path(cfg)
    if not manifest.exists():
        raise UsageError(f"no manifest at {manifest}; run generate first")
    checksums = {}
    for line in manifest.read_text(encoding="ascii").splitlines()[1:]:
        parts = line.split()
        checksums[parts[0]] = parts[3]
    path = _dataset_dir(cfg) / f"{name}.msda"
    if name not in checksums or not path.exists():
        raise UsageError(f"dataset {name!r} not found under {_dataset_dir(cfg)}")
    if _sha256(path) != checksums[name]:
        raise RuntimeError(f"checksum mismatch for {path}; refusing to use a tampered dataset")
    return read_dataset(path)


def _train_run(cfg: RunConfig):
    if cfg.protocol == "single" and len(cfg.sources) != 1:
        raise UsageError("protocol=single needs exactly one source")
    if cfg.protocol in ("combined", "multi") and len(cfg.sources) < 2:
        raise UsageError(f"protocol={cfg.protocol} needs at least two sources")
    sources = [_load_verified(cfg, name) for name in cfg.sources]
    target = _load_verified(cfg, cfg.target)
    target_train, _, target_test = split(target, cfg.hyper.seed, stratified=False)
    target_unlabeled = strip_labels(target_train)

    branches = len(sources) if cfg.protocol == "multi" else 1
    image_spec = (1,) + sources[0].images.shape[2:]
    model = build_model(branches, 2, image_spec, seed=cfg.hyper.seed)
    if cfg.protocol == "single":
        report = train_single_source(model, sources[0], target_unlabeled, cfg.hyper)
    elif cfg.protocol == "combined":
        report = train_source_combined(model, sources, target_unlabeled, cfg.hyper)
    else:
        report = train_multi_source(model, sources, target_unlabeled, cfg.hyper)
    report.test_accuracy = evaluate(model, target_test)
    return model, report, target_test


def cmd_train(cfg: RunConfig) -> int:
    model, report, target_test = _train_run(cfg)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{cfg.protocol}_{cfg.target}"
    report_path = out / f"report_{stem}.csv"
    report_path.write_text(
        "protocol,target,sources,accuracy,seed\n" + report.run_row() + "\n", encoding="ascii"
    )
    epochs_path = out / f"epochs_{stem}.csv"
    epochs_path.write_text("\n".join(report.epoch_rows()) + "\n", encoding="ascii")
    ckpt_path = out / f"checkpoint_{stem}.ckpt"
    save_checkpoint(model, ckpt_path)
    print(f"wrote {report_path}")
    print(f"wrote {epochs_path}")
    print(f"wrote {ckpt_path}")
    print(f"target accuracy: {report.test_accuracy * 100:.2f}%")
    if cfg.export_cams:
        _export_cams(cfg, model, target_test)
    return 0


def cmd_suite(cfg: RunConfig) -> int:
    result = run_protocol_suite(
        cfg.roster, cfg.target, cfg.hyper, n_per_domain=cfg.n_per_domain, anchor=cfg.anchor
    )
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / f"suite_runs_{cfg.target}.csv"
    runs_path.write_text(render_runs_csv(result), encoding="ascii")
    summary_path = out / f"suite_summary_{cfg.target}.csv"
    summary_path.write_text(render_summary_csv(result), encoding="ascii")
    print(f"wrote {runs_path}")
    print(f"wrote {summary_path}")
    for method, avg in result.method_averages.items():
        print(f"{method}: {avg * 100:.2f}%")
    return 0


def _export_cams(cfg: RunConfig, model, target_test) -> None:
    cam_dir = Path(cfg.output_dir) / "cams"
    cam_dir.mkdir(parents=True, exist_ok=True)
    n = min(cfg.n_images, target_test.n)
    for i in range(n):
        img = Tensor(target_test.images[i : i + 1])
        label, _ = predict(model, img)
        cls = label[0]
        per_branch = compute_cams(model, img, cls)
        for j, hm in enumerate(per_branch):
            export_pgm(hm, cam_dir / f"{cfg.target}_{j}_{cls}_{i:04d}.pgm")
        export_pgm(aggregate_cams(per_branch), cam_dir / f"{cfg.target}_aggregate_{cls}_{i:04d}.pgm")
    print(f"wrote {n * (model.num_sources + 1)} heatmaps under {cam_dir}")


def cmd_cam(cfg: RunConfig, checkpoint: str, n_images: int | None) -> int:
    ckpt = Path(checkpoint)
    if not ckpt.exists():
        raise UsageError(f"checkpoint {ckpt} does not exist")
    model = load_checkpoint(ckpt)
    if n_images is not None:
        cfg = replace(cfg, n_images=n_images)
    by_name = {s.name: s for s in cfg.roster}
    target = generate_domain(by_name[cfg.target], cfg.n_per_domain, cfg.hyper.seed)
    _, _, target_test = split(target, cfg.hyper.seed, stratified=False)
    _export_cams(cfg, model, target_test)
    return 0


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits with 2 by default; we want 1
        raise UsageError(message)


def main(argv=None) -> int:
    parser = _Parser(prog="msda", description="Multi-source domain adaptation lab")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("generate", "render the roster datasets and a checksum manifest"),
        ("train", "run one training protocol and write report + checkpoint"),
        ("suite", "run the full anchored protocol suite for one target"),
        ("cam", "export class activation heatmaps from a checkpoint"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override hyper.seed")
        if name == "cam":
            p.add_argument("--checkpoint", required=True)
            p.add_argument("--n-images", type=int, default=None)

    try:
        args = parser.parse_args(argv)
        cfg = load_config(args.config, seed_override=args.seed)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "suite":
            return cmd_suite(cfg)
        return cmd_cam(cfg, args.checkpoint, args.n_images)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
