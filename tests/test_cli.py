"""Command-line surface: smoke flows, determinism, error exits."""

import json
import sys

import numpy as np
import pytest

from affseg.cli import main


def run(*argv):
    return main(list(argv))


@pytest.fixture()
def world_dir(tmp_path):
    out = tmp_path / "world"
    assert run("gen-synth", "--seed", "5", "--objects", "4", "--novel", "2",
               "--items", "2", "--out", str(out)) == 0
    return out


@pytest.fixture()
def cfg_path(tmp_path):
    cfg = {"lr": 0.01, "iterations": 30, "seed": 5, "p": 4, "j": 2, "t": 1,
           "C": 24, "C_t": 16, "log_every": 10}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestGenSynth:
    def test_manifest_and_files(self, world_dir):
        from affseg.data import load_manifest

        manifest = load_manifest(world_dir / "manifest.json")
        assert len(manifest.objects) == 6
        assert len(manifest.items) == 12
        assert len(manifest.base_objects()) == 4
        for item in manifest.items:
            assert manifest.resolve(item.features).exists()

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run("gen-synth", "--seed", "9", "--objects", "2", "--items", "1",
                "--out", str(out))
        for rel in sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file()):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()


class TestDensifyCommand:
    def test_roundtrip(self, tmp_path):
        doc = {"height": 12, "width": 10, "affordances": ["grasp", "cut"],
               "points": {"grasp": [[4, 6], [5, 5]]}}
        inp = tmp_path / "kp.json"
        inp.write_text(json.dumps(doc))
        out = tmp_path / "mask.ooal"
        assert run("densify", "--in", str(inp), "--sigma", "2.0", "--out", str(out)) == 0
        from affseg.data import load_target

        target = load_target(out, kind="densified-sparse")
        assert target.shape == (12, 10, 2)
        assert target.M[:, :, 0].max() == 1.0

    @pytest.mark.parametrize("key", ["points", "height", "width", "affordances"])
    def test_missing_key_is_named(self, tmp_path, capsys, key):
        doc = {"height": 12, "width": 10, "affordances": ["grasp"], "points": {"grasp": [[4, 6]]}}
        del doc[key]
        inp = tmp_path / "kp.json"
        inp.write_text(json.dumps(doc))
        assert run("densify", "--in", str(inp), "--out", str(tmp_path / "m.ooal")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"no {key!r} key" in err


class TestTrainEval:
    def test_train_eval_smoke(self, world_dir, cfg_path, tmp_path):
        ckpt = tmp_path / "model.ooal"
        log = tmp_path / "loss.csv"
        assert run("train", "--config", str(cfg_path), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(ckpt),
                   "--loss-log", str(log)) == 0
        assert ckpt.exists()
        lines = log.read_text().strip().splitlines()
        assert lines[0] == "iteration,loss"
        assert len(lines) == 1 + 3  # ceil(30 / 10)

        report = tmp_path / "report.json"
        assert run("eval", "--ckpt", str(ckpt), "--manifest",
                   str(world_dir / "manifest.json"), "--mode", "dense",
                   "--report", str(report)) == 0
        doc = json.loads(report.read_text())
        assert doc["seen"]["aggregates"]["miou"] is not None
        assert doc["unseen"]["aggregates"]["miou"] is not None
        assert doc["hiou"] is not None

        heat = tmp_path / "heat.json"
        assert run("eval", "--ckpt", str(ckpt), "--manifest",
                   str(world_dir / "manifest.json"), "--mode", "heatmap",
                   "--report", str(heat)) == 0
        hdoc = json.loads(heat.read_text())
        for split in ("seen", "unseen"):
            for key in ("kld", "sim", "nss"):
                assert hdoc[split]["aggregates"][key] is not None

    def test_train_determinism_bitwise(self, world_dir, cfg_path, tmp_path):
        outs = []
        for name in ("a.ooal", "b.ooal"):
            out = tmp_path / name
            run("train", "--config", str(cfg_path), "--manifest",
                str(world_dir / "manifest.json"), "--out", str(out))
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flag", ["tpl", "mlff", "td", "ctm"])
    def test_ablations_change_checkpoint_bytes(self, world_dir, cfg_path, tmp_path, flag):
        plain = tmp_path / "plain.ooal"
        run("train", "--config", str(cfg_path), "--manifest",
            str(world_dir / "manifest.json"), "--out", str(plain))
        ablated = tmp_path / f"{flag}.ooal"
        assert run("train", "--config", str(cfg_path), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(ablated),
                   "--ablate", flag) == 0
        assert plain.read_bytes() != ablated.read_bytes()

    def test_precomputed_text_embeddings(self, world_dir, cfg_path, tmp_path):
        # text rows ride the container as one N x C layer, bypassing prompts
        from affseg.features import FeatureStack, save_features

        rng = np.random.default_rng(0)
        rows = rng.standard_normal((4, 24))  # 4 affordance classes x C
        stack = FeatureStack(layers=(rows,), cls=np.zeros(24), grid=(1, 4),
                             image_size=(1, 4))
        tpath = tmp_path / "text.ooal"
        save_features(stack, tpath)
        out = tmp_path / "ckpt.ooal"
        assert run("train", "--config", str(cfg_path), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(out),
                   "--text-embeddings", str(tpath)) == 0


class TestAnalyzeCommands:
    def test_pca_and_simmap(self, world_dir, tmp_path):
        from affseg.data import load_manifest

        manifest = load_manifest(world_dir / "manifest.json")
        feats = [str(manifest.resolve(it.features)) for it in manifest.items[:2]]
        csv_out = tmp_path / "scores.csv"
        ppm_out = tmp_path / "pc1.ppm"
        assert run("analyze", "pca", "--features", feats[0], "-k", "2",
                   "--scores-csv", str(csv_out), "--heatmap", str(ppm_out)) == 0
        assert csv_out.read_text().startswith("pc1,pc2")
        assert ppm_out.read_bytes().startswith(b"P6\n")

        smap = tmp_path / "sim.ppm"
        assert run("analyze", "simmap", "--features", feats[0], "--target",
                   feats[1], "--patch", "1,1", "--out", str(smap)) == 0
        assert smap.exists()

    def test_pca_pooled_rejects_heatmap(self, world_dir, tmp_path):
        from affseg.data import load_manifest

        manifest = load_manifest(world_dir / "manifest.json")
        feats = [str(manifest.resolve(it.features)) for it in manifest.items[:2]]
        assert run("analyze", "pca", "--features", *feats,
                   "--heatmap", str(tmp_path / "x.ppm")) == 1


class TestCheckGrad:
    def test_exit_zero_on_healthy_gradients(self, capsys):
        assert run("check-grad", "--seed", "0") == 0
        out = capsys.readouterr().out
        assert "max relative error" in out


class TestErrorPaths:
    def test_unknown_flag_nonzero_exit(self):
        with pytest.raises(SystemExit) as exc:
            run("train", "--frobnicate")
        assert exc.value.code != 0

    def test_unreadable_config(self, world_dir, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{not json")
        assert run("train", "--config", str(bad), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(tmp_path / "x")) == 1

    def test_unknown_config_key(self, world_dir, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"iterations": 1, "momentum": 0.9}))
        assert run("train", "--config", str(bad), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(tmp_path / "x")) == 1
        assert "momentum" in capsys.readouterr().err

    def test_checkpoint_vs_manifest_mismatch(self, world_dir, cfg_path, tmp_path):
        ckpt = tmp_path / "model.ooal"
        run("train", "--config", str(cfg_path), "--manifest",
            str(world_dir / "manifest.json"), "--out", str(ckpt))
        # same files, renamed vocabulary: the checkpoint must refuse
        doc = json.loads((world_dir / "manifest.json").read_text())
        doc["affordances"][0] = "hold"
        renamed = world_dir / "renamed.json"
        renamed.write_text(json.dumps(doc))
        assert run("eval", "--ckpt", str(ckpt), "--manifest", str(renamed),
                   "--mode", "dense", "--report", str(tmp_path / "r.json")) == 1

    def test_bad_patch_spec(self, world_dir, tmp_path):
        from affseg.data import load_manifest

        manifest = load_manifest(world_dir / "manifest.json")
        feat = str(manifest.resolve(manifest.items[0].features))
        assert run("analyze", "simmap", "--features", feat, "--target", feat,
                   "--patch", "zz", "--out", str(tmp_path / "s.ppm")) == 1


def test_console_script_installed():
    import subprocess

    proc = subprocess.run([sys.executable, "-m", "affseg.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "gen-synth" in proc.stdout
