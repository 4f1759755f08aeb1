"""CLI tests: config round-trips, command plumbing, exit codes, files."""

import os
import subprocess
import sys

import numpy as np
import pytest

from msdalab.autodiff import Tensor
from msdalab.cam import aggregate_cams, compute_cam, export_pgm, read_pgm
from msdalab.cli import (
    RunConfig,
    UsageError,
    cmd_generate,
    load_config,
    main,
    parse_config,
    serialize_config,
)
from msdalab.data import read_dataset, split
from msdalab.model import load_checkpoint, predict


def write_config(tmp_path, **overrides):
    base = {
        "target": "Os",
        "protocol": "single",
        "sources": "Ab",
        "output_dir": str(tmp_path / "out"),
        "n_per_domain": 60,
        "hyper.epochs": 2,
        "hyper.batch": 8,
        "hyper.seed": 0,
        "n_images": 2,
    }
    base.update(overrides)
    text = "\n".join(f"{k} = {v}" for k, v in base.items()) + "\n"
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return path


class TestConfig:
    def test_parse_defaults(self):
        cfg = parse_config("")
        assert [s.name for s in cfg.roster] == ["Ab", "Bu", "Bo", "Li", "Wi", "Os"]
        assert cfg.protocol == "multi"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\ntarget = Bu   # trailing\nsources = Ab,Li\n")
        assert cfg.target == "Bu"
        assert cfg.sources == ["Ab", "Li"]

    def test_roster_override_and_new_domain(self):
        cfg = parse_config(
            "roster.Ab.blur_radius = 0.9\nroster.Zz.background_level = 0.4\n"
            "target = Zz\nsources = Ab,Bu\n"
        )
        by_name = {s.name: s for s in cfg.roster}
        assert by_name["Ab"].blur_radius == 0.9
        assert by_name["Zz"].background_level == 0.4

    def test_round_trip_identity(self):
        text = (
            "target = Li\nprotocol = combined\nsources = Ab,Wi\nhyper.lr = 0.002\n"
            "hyper.lambda = 0.25\nhyper.kernel.bandwidth = 1.5\n"
            "hyper.kernel.multipliers = 0.5,1.0,2.0\nroster.Ab.noise_sigma = 0.125\n"
            "export_cams = true\nanchor = Bu\n"
        )
        once = parse_config(text)
        again = parse_config(serialize_config(once))
        assert once == again

    def test_bad_key_rejected(self):
        with pytest.raises(UsageError):
            parse_config("no_such_key = 1\n")

    def test_bad_value_rejected(self):
        with pytest.raises(UsageError):
            parse_config("hyper.lr = fast\n")

    def test_target_among_sources_rejected(self):
        with pytest.raises(UsageError):
            parse_config("target = Ab\nsources = Ab,Bu\n")

    def test_unknown_source_rejected(self):
        with pytest.raises(UsageError):
            parse_config("sources = Ab,Qq\n")

    def test_seed_override(self, tmp_path):
        path = write_config(tmp_path)
        assert load_config(path).hyper.seed == 0
        assert load_config(path, seed_override=7).hyper.seed == 7


class TestGenerate:
    def test_writes_datasets_and_manifest(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cmd_generate(cfg) == 0
        out = tmp_path / "out" / "datasets"
        files = sorted(p.name for p in out.glob("*.msda"))
        assert files == ["Ab.msda", "Bo.msda", "Bu.msda", "Li.msda", "Os.msda", "Wi.msda"]
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert manifest[0] == "MSDAMANIFEST 1"
        assert len(manifest) == 7
        ds = read_dataset(out / "Ab.msda")
        assert ds.n == 60

    def test_rerun_identical_checksums(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        cmd_generate(cfg)
        first = (tmp_path / "out" / "datasets" / "manifest.txt").read_text()
        cmd_generate(cfg)
        assert (tmp_path / "out" / "datasets" / "manifest.txt").read_text() == first


class TestMainExitCodes:
    def test_usage_error_is_one(self, tmp_path, capsys):
        path = write_config(tmp_path, protocol="multi", sources="Ab")
        assert main(["train", "--config", str(path)]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag_is_one(self, capsys):
        assert main(["train", "--nope"]) == 1

    def test_run_as_module_without_warning(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        res = subprocess.run([sys.executable, "-m", "msdalab.cli", "--help"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert res.returncode == 0
        assert "Warning" not in res.stderr

    def test_missing_config_is_one(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "missing.cfg")]) == 1

    def test_train_before_generate_is_one(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["train", "--config", str(path)]) == 1

    def test_tampered_dataset_is_two(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["generate", "--config", str(path)]) == 0
        victim = tmp_path / "out" / "datasets" / "Ab.msda"
        raw = bytearray(victim.read_bytes())
        raw[-1] ^= 0xFF
        victim.write_bytes(bytes(raw))
        assert main(["train", "--config", str(path)]) == 2
        assert "checksum" in capsys.readouterr().err

    def test_missing_checkpoint_is_one(self, tmp_path, capsys):
        path = write_config(tmp_path)
        code = main(["cam", "--config", str(path), "--checkpoint", str(tmp_path / "no.ckpt")])
        assert code == 1


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli")
    path = write_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path)]) == 0
    return tmp_path, path


class TestTrainSuiteCam:

    def test_train_outputs(self, workspace):
        tmp_path, _ = workspace
        out = tmp_path / "out"
        report = (out / "report_single_Os.csv").read_text().splitlines()
        assert report[0] == "protocol,target,sources,accuracy,seed"
        proto, target, sources, acc, seed = report[1].split(",")
        assert (proto, target, sources, seed) == ("single", "Os", "Ab", "0")
        assert 0.0 <= float(acc) <= 100.0
        epochs = (out / "epochs_single_Os.csv").read_text().splitlines()
        assert epochs[0] == "epoch,cl,fd,cd,total,val_accuracy"
        assert len(epochs) == 3
        assert (out / "checkpoint_single_Os.ckpt").exists()

    def test_train_idempotent(self, workspace):
        tmp_path, path = workspace
        out = tmp_path / "out"
        before = {
            p.name: p.read_bytes()
            for p in out.iterdir()
            if p.name.startswith(("report_", "epochs_", "checkpoint_"))
        }
        assert main(["train", "--config", str(path)]) == 0
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob

    def test_cam_exports_parse(self, workspace):
        tmp_path, path = workspace
        ckpt = tmp_path / "out" / "checkpoint_single_Os.ckpt"
        assert main(["cam", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        cams = sorted((tmp_path / "out" / "cams").glob("*.pgm"))
        # n_images=2, single branch -> branch + aggregate per image
        assert len(cams) == 4
        for p in cams:
            img = read_pgm(p)
            assert img.shape == (28, 28)
            assert p.name.startswith("Os_")

    def test_cam_zero_images(self, workspace, tmp_path):
        ws_tmp, _ = workspace
        path = write_config(tmp_path, n_images=0)
        # reuse the other workspace's checkpoint but write to fresh out dir
        ckpt = ws_tmp / "out" / "checkpoint_single_Os.ckpt"
        assert main(["cam", "--config", str(path), "--checkpoint", str(ckpt)]) == 0
        cams = list((tmp_path / "out" / "cams").glob("*.pgm"))
        assert cams == []


class TestExportCams:
    def test_train_export_matches_per_branch_maps(self, tmp_path):
        path = write_config(tmp_path, protocol="multi", sources="Ab, Bu, Bo", export_cams="true",
                            n_per_domain=40, **{"hyper.epochs": 1})
        assert main(["generate", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0
        out = tmp_path / "out"
        model = load_checkpoint(out / "checkpoint_multi_Os.ckpt")
        target = read_dataset(out / "datasets" / "Os.msda")
        _, _, test = split(target, 0, stratified=False)
        ref_dir = tmp_path / "ref"
        ref_dir.mkdir()
        for i in range(2):
            img = Tensor(test.images[i : i + 1])
            cls = predict(model, img)[0][0]
            maps = [compute_cam(model, img, cls, j) for j in range(3)]
            names = [f"Os_{j}_{cls}_{i:04d}.pgm" for j in range(3)]
            for name, hm in zip(names, maps):
                export_pgm(hm, ref_dir / name)
            names.append(f"Os_aggregate_{cls}_{i:04d}.pgm")
            export_pgm(aggregate_cams(maps), ref_dir / names[-1])
            for name in names:
                assert (out / "cams" / name).read_bytes() == (ref_dir / name).read_bytes(), name
        assert len(list((out / "cams").glob("*.pgm"))) == 8


class TestSuiteCommand:
    def test_suite_files(self, tmp_path):
        path = write_config(
            tmp_path, **{"n_per_domain": 40, "hyper.epochs": 1,
                         "hyper.lambda": 0.05, "hyper.gamma": 0.05}
        )
        assert main(["suite", "--config", str(path)]) == 0
        out = tmp_path / "out"
        runs = (out / "suite_runs_Os.csv").read_text().splitlines()
        assert len(runs) == 1 + 21 + 5
        summary = (out / "suite_summary_Os.csv").read_text().splitlines()
        assert summary[0] == "method,average"
        assert len(summary) == 6
        methods = [line.split(",")[0] for line in summary[1:]]
        assert methods == ["single", "combined2", "combined3", "multi2", "multi3"]
        # summary averages equal the mean of their per-run rows
        per_method = {}
        for line in runs[1:22]:
            proto, _, sources, acc, _ = line.split(",")
            key = proto if proto == "single" else f"{proto}{len(sources.split('+'))}"
            per_method.setdefault(key, []).append(float(acc))
        for line in summary[1:]:
            method, avg = line.split(",")
            assert abs(float(avg) - np.mean(per_method[method])) <= 0.005
