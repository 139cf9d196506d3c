"""Command-line surface: smoke flows, determinism, error exits."""

import contextlib
import dataclasses
import importlib
import io
import json
import math
import re
import shlex
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affseg import cli, training
from affseg.cli import ABLATIONS, build_parser, main
from affseg.container import CorruptionError, FormatError
from affseg.data import DENSIFIED_SPARSE, AffordanceTarget, load_target, save_target
from affseg.features import FeatureStack, load_features, save_features
from tests.test_data import (
    _MANIFEST_FIELDS,
    BAD_TARGETS,
    _field_values,
    damage,
    write_world,
)


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

    @pytest.mark.parametrize("flag, value, match", [
        # 4 parts need 5 signatures with pairwise |cos| < 0.8: none exist in 1 or 2 dims
        pytest.param("--feature-dim", "1", "4 parts and a background in feature dim 1",
                     id="feature-dim-1"),
        pytest.param("--feature-dim", "2", "4 parts and a background in feature dim 2",
                     id="feature-dim-2"),
        pytest.param("--feature-dim", "0", "feature_dim must be >= 1", id="feature-dim-0"),
        pytest.param("--layers", "0", "num_layers must be >= 1", id="layers-0"),
        # past what numpy can index: refused without allocating
        pytest.param("--feature-dim", str(10**20), f"num_layers 4 and feature_dim {10**20} on "
                     f"grid (8, 8): {257 * 10**20} values are more than one numpy array can "
                     "hold", id="feature-dim-1e20"),
        pytest.param("--novel", "-1", "num_novel must be >= 0", id="novel-negative"),
        pytest.param("--noise", "inf", "noise_scale must be finite and >= 0", id="noise-inf"),
        pytest.param("--noise", "-1", "noise_scale must be finite and >= 0", id="noise-negative"),
        pytest.param("--items", "0", "--items must be >= 1", id="items-0"),
        pytest.param("--items", "-1", "--items must be >= 1", id="items-negative"),
        pytest.param("--seed", "-1", "seed must be >= 0", id="seed-negative"),
    ])
    def test_out_of_range_flag_is_one_error(self, tmp_path, capsys, flag, value, match):
        assert run("gen-synth", "--seed", "7", "--objects", "2", "--items", "1", flag, value,
                   "--out", str(tmp_path / "w")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and match in err
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]


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

    @pytest.mark.parametrize("change,match", [
        pytest.param({"points": [[4, 6]]}, "points", id="points-list"),
        pytest.param({"points": {"grasp": [4]}}, "points", id="scalar-point"),
        pytest.param({"points": {"grasp": 4}}, "points", id="point-list-not-list"),
        pytest.param({"points": {"grasp": [[4, 6, 1]]}}, "points", id="three-coordinates"),
        pytest.param({"points": {"grasp": [["4", 6]]}}, "points", id="string-coordinate"),
    ] + [
        pytest.param({key: value}, f"{key} must be a positive integer", id=f"{key}-{i}")
        for key in ("height", "width")
        for i, value in (("string", "5"), ("float", 5.5), ("negative", -3), ("zero", 0),
                         ("bool", True))
    ] + [
        pytest.param({"affordances": value}, "affordances must be a non-empty list",
                     id=f"affordances-{i}")
        for i, value in (("string", "grasp"), ("nested", [["grasp"]]), ("empty", []),
                         ("duplicate", ["grasp", "grasp"]), ("number", [1]))
    ])
    def test_malformed_points_name_the_file(self, tmp_path, capsys, change, match):
        doc = {"height": 12, "width": 10, "affordances": ["grasp"],
               "points": {"grasp": [[4, 6]]}, **change}
        inp = tmp_path / "kp.json"
        inp.write_text(json.dumps(doc))
        out = tmp_path / "m.ooal"
        assert run("densify", "--in", str(inp), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "kp.json" in err and match in err
        assert not out.exists()


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

    def test_densified_mask_target_trains(self, world_dir, cfg_path, tmp_path, capsys):
        from affseg.features import load_features

        doc = json.loads((world_dir / "manifest.json").read_text())
        H, W = load_features(world_dir / doc["items"][0]["features"]).image_size
        kp = {"height": H, "width": W, "affordances": doc["affordances"],
              "points": {doc["affordances"][0]: [[10, 20]], doc["affordances"][1]: [[40, 33]]}}
        (tmp_path / "kp.json").write_text(json.dumps(kp))
        assert run("densify", "--in", str(tmp_path / "kp.json"), "--sigma", "6",
                   "--out", str(world_dir / "mask.ooal")) == 0
        for item in doc["items"]:
            item["target"] = {"kind": "mask", "path": "mask.ooal"}
        binary = world_dir / "binary.json"
        binary.write_text(json.dumps(doc))
        for item in doc["items"]:
            item["target"]["target_kind"] = "densified-sparse"
        soft = world_dir / "soft.json"
        soft.write_text(json.dumps(doc))
        capsys.readouterr()

        out = tmp_path / "m.ooal"
        assert run("train", "--config", str(cfg_path), "--manifest", str(binary),
                   "--out", str(out)) == 1
        assert "non-binary" in capsys.readouterr().err
        assert run("train", "--config", str(cfg_path), "--manifest", str(soft),
                   "--out", str(out)) == 0
        assert run("eval", "--ckpt", str(out), "--manifest", str(soft), "--mode", "heatmap",
                   "--report", str(tmp_path / "r.json")) == 0
        capsys.readouterr()
        assert run("eval", "--ckpt", str(out), "--manifest", str(binary), "--mode", "heatmap",
                   "--report", str(tmp_path / "r.json")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "non-binary" in err
        assert all(word in err for word in ("item ", "mask.ooal", "target_kind", DENSIFIED_SPARSE))

    def test_dense_eval_with_every_union_empty_writes_strict_json(self, tmp_path, capsys):
        # the novel object's target is all background and no score reaches the
        # threshold: every class of the unseen split has an empty union
        world, ckpt, report = tmp_path / "world", tmp_path / "m.ooal", tmp_path / "r.json"
        assert run("gen-synth", "--seed", "7", "--objects", "4", "--novel", "1",
                   "--items", "2", "--out", str(world)) == 0
        target = world / "targets" / "novel-00.ooal"
        save_target(AffordanceTarget(M=np.zeros_like(load_target(target).M)), target)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 50, "p": 2, "j": 2, "t": 1, "C": 16,
                                   "C_t": 16}))
        manifest = str(world / "manifest.json")
        assert run("train", "--config", str(cfg), "--manifest", manifest,
                   "--out", str(ckpt)) == 0
        capsys.readouterr()
        assert run("eval", "--ckpt", str(ckpt), "--manifest", manifest, "--mode", "dense",
                   "--threshold", "0.9999999999999999", "--report", str(report)) == 0

        def refuse(constant):
            raise AssertionError(f"{constant} in the report")

        doc = json.loads(report.read_text(), parse_constant=refuse)
        assert doc["seen"]["aggregates"]["miou"] is not None
        assert doc["unseen"]["aggregates"]["miou"] is None and doc["hiou"] is None
        assert capsys.readouterr().out.splitlines()[-1].split()[1:] == ["n/a", "n/a"]

    def test_zero_iterations_reports_no_loss(self, world_dir, tmp_path, capsys):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"iterations": 0, "C": 8, "C_t": 8}))
        assert run("train", "--config", str(cfg), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(tmp_path / "m.ooal")) == 0
        out = capsys.readouterr().out
        assert "trained 0 iterations, checkpoint" in out and "loss" not in out

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

    @pytest.mark.parametrize("flag", ["tpl", "mlff", "td", "ctm"])
    def test_ablate_flag_is_its_config_override(self, world_dir, cfg_path, tmp_path, capsys,
                                                flag):
        manifest = str(world_dir / "manifest.json")
        override = tmp_path / "override.json"
        override.write_text(json.dumps({**json.loads(cfg_path.read_text()), **ABLATIONS[flag]}))
        outputs = {}
        for name, argv in (("flag", ["--config", str(cfg_path), "--ablate", flag]),
                           ("config", ["--config", str(override)])):
            files = [tmp_path / f"{name}.{ext}" for ext in ("ooal", "csv", "dense", "heatmap")]
            assert run("train", *argv, "--manifest", manifest, "--out", str(files[0]),
                       "--loss-log", str(files[1])) == 0
            for report in files[2:]:
                assert run("eval", "--ckpt", str(files[0]), "--manifest", manifest,
                           "--mode", report.suffix[1:], "--report", str(report)) == 0
            outputs[name] = [f.read_bytes() for f in files]
        assert outputs["flag"] == outputs["config"]

        ckpt = tmp_path / "flag.ooal"
        cfg = training.load_checkpoint(ckpt).cfg
        assert cfg == dataclasses.replace(training.load_config(cfg_path), **ABLATIONS[flag])
        raw = ckpt.read_bytes()
        (n,) = struct.unpack("<I", raw[8:12])
        doc = json.loads(raw[12:12 + n])
        assert "ablate" not in doc and doc["version"] == 2
        dims = cfg.p, cfg.C_t, cfg.j, 32, cfg.C, cfg.t
        want = [*training.param_shapes(*dims), ("text_encoder.proj", (cfg.C_t, cfg.C))]
        assert [(e["name"], tuple(e["shape"])) for e in doc["arrays"]] == want

        # the same file stamped version 1 is refused, not read as another model
        blob = json.dumps({**doc, "version": 1}).encode()
        ckpt.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + n:])
        capsys.readouterr()
        assert run("eval", "--ckpt", str(ckpt), "--manifest", manifest, "--mode", "dense",
                   "--report", str(tmp_path / "r.json")) == 1
        assert capsys.readouterr().err == "error: unsupported checkpoint version 1\n"

    def test_model_without_every_optional_module_runs_every_command(self, world_dir, tmp_path):
        manifest = str(world_dir / "manifest.json")
        cfg = tmp_path / "bare.json"
        cfg.write_text(json.dumps({"iterations": 5, "p": 0, "j": 0, "t": 0, "gate": False,
                                   "C": 8, "C_t": 8}))
        ckpt = tmp_path / "bare.ooal"
        assert run("train", "--config", str(cfg), "--manifest", manifest, "--out", str(ckpt)) == 0
        for mode in ("dense", "heatmap"):
            assert run("eval", "--ckpt", str(ckpt), "--manifest", manifest, "--mode", mode,
                       "--report", str(tmp_path / f"{mode}.json")) == 0

    @pytest.mark.parametrize("iterations, defect", [
        pytest.param(i, d, id=f"{d}-{i}" if d else str(i))
        for d in (None, "16-wide-features", "32x32-target") for i in (0, 1)])
    def test_more_fused_layers_than_features_fails_before_training(self, tmp_path, capsys,
                                                                   iterations, defect):
        # each training item's files must fit the model before any step, also with none;
        # base-00-00 is the first training item and base-01-00 the second
        want = {
            None: r"config j 5 wants 5 feature layers but item base-0\d-00 has 2",
            "16-wide-features": "item base-01-00 has feature dim 16, item base-00-00 has 32",
            "32x32-target": "item base-01-00: target is 32x32 pixels, "
                            "features are of a 64x64 image",
        }[defect]
        world = tmp_path / "w"
        assert run("gen-synth", "--seed", "7", "--objects", "2", "--novel", "1", "--items", "1",
                   "--layers", "2", "--out", str(world)) == 0
        if defect == "16-wide-features":
            s = load_features(world / "feats/base-01-00.ooal")
            save_features(FeatureStack(tuple(x[:, :16] for x in s.layers), s.cls[:16], s.grid,
                                       s.image_size), world / "feats/base-01-00.ooal")
        elif defect == "32x32-target":
            target = load_target(world / "targets/base-01.ooal")
            save_target(AffordanceTarget(M=target.M[:32, :32]), world / "targets/base-01.ooal")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": iterations, "j": 2 if defect else 5,
                                   "C": 8, "C_t": 8}))
        capsys.readouterr()
        assert run("train", "--config", str(cfg), "--manifest", str(world / "manifest.json"),
                   "--out", str(tmp_path / "m.ooal"), "--loss-log", str(tmp_path / "l.csv")) == 1
        assert re.fullmatch(f"error: {want}\n", capsys.readouterr().err)
        assert not (tmp_path / "m.ooal").exists() and not (tmp_path / "l.csv").exists()

    @pytest.mark.parametrize("key", ["p", "C_t", "C"])
    def test_model_numpy_cannot_hold_is_one_error(self, world_dir, tmp_path, capsys, key):
        # past what numpy can index: refused by name without allocating (t, which
        # builds no array of that size, is tested in process)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 1, "p": 2, "j": 2, "t": 1, "C": 8, "C_t": 8,
                                   key: 10**20}))
        capsys.readouterr()
        assert run("train", "--config", str(cfg), "--manifest", str(world_dir / "manifest.json"),
                   "--out", str(tmp_path / "m.ooal")) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: config p \d+, C_t \d+, j 2, C \d+ and t \d+ at feature "
                            r"dim 32: \d+ values are more than one numpy array can hold\n", err)
        assert f"{key} {10**20}" in err and not (tmp_path / "m.ooal").exists()

    def test_saturated_prediction_scores_finite(self, tmp_path):
        # embedder weight 0 and bias -1e6 * prompt 0 drive every score of channel 0 to exactly 0
        world = tmp_path / "w"
        assert run("gen-synth", "--seed", "7", "--objects", "3", "--novel", "1", "--items", "2",
                   "--out", str(world)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 20, "p": 2, "j": 2, "t": 0, "C": 8, "C_t": 8}))
        ckpt = tmp_path / "m.ooal"
        manifest = str(world / "manifest.json")
        assert run("train", "--config", str(cfg), "--manifest", manifest, "--out", str(ckpt)) == 0
        trained = training.load_checkpoint(ckpt)
        mp = trained.params
        params = training.ModelParams(mp.theta.copy(), mp.dims, mp.gated)
        params.emb.weight[...] = 0.0
        params.emb.bias[...] = -1e6 * trained.text[0]
        saturated = training.Checkpoint(params, trained.enc, trained.affordances, trained.cfg)
        training.save_checkpoint(saturated, ckpt)

        report = tmp_path / "heat.json"
        assert run("eval", "--ckpt", str(ckpt), "--manifest", manifest, "--mode", "heatmap",
                   "--report", str(report)) == 0
        doc = json.loads(report.read_text())
        values = [rec[key] for split in ("seen", "unseen")
                  for rec in doc[split]["items"] + [doc[split]["aggregates"]]
                  for key in ("kld", "sim", "nss")]
        assert values and all(v is not None and math.isfinite(v) for v in values)
        assert run("eval", "--ckpt", str(ckpt), "--manifest", manifest, "--mode", "dense",
                   "--report", str(tmp_path / "dense.json")) == 0

    @pytest.mark.parametrize("command, scale, message", [
        ("train", 1e150, "error: non-finite gradient for parameter fusion.proj.0\n"),
        ("dense", 1e200, "error: item base-00-00: non-finite value in decoder layer output\n"),
        ("heatmap", 1e200, "error: item base-00-00: non-finite value in decoder layer output\n"),
    ])
    def test_overflowing_features_fail_with_one_line(self, tmp_path, capsys, command, scale,
                                                     message):
        world = tmp_path / "w"
        assert run("gen-synth", "--seed", "7", "--objects", "3", "--novel", "1", "--items", "2",
                   "--out", str(world)) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"iterations": 5, "p": 2, "j": 2, "t": 1, "C": 8, "C_t": 8}))
        manifest, ckpt = str(world / "manifest.json"), str(tmp_path / "m.ooal")
        assert run("train", "--config", str(cfg), "--manifest", manifest, "--out", ckpt) == 0
        for path in (world / "feats").iterdir():
            stack = load_features(path)
            save_features(FeatureStack(layers=tuple(scale * x for x in stack.layers),
                                       cls=scale * stack.cls, grid=stack.grid,
                                       image_size=stack.image_size), path)
        if command == "train":
            argv = ["train", "--config", str(cfg), "--out", ckpt]
        else:
            argv = ["eval", "--ckpt", ckpt, "--mode", command, "--report", str(tmp_path / "r")]
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, "--manifest", manifest) == 1
        assert not caught
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("argv, flag", [
        pytest.param([command, "--sigma", value], "--sigma", id=f"{command}-sigma-{value}")
        for command in ("train", "densify") for value in ("nan", "inf", "0", "-1", "1e7", "1e-3")
    ] + [
        pytest.param(["eval", "--mode", mode, "--sigma", value], "--sigma",
                     id=f"eval-{mode}-sigma-{value}")
        for mode in ("dense", "heatmap") for value in ("nan", "0", "1e7", "1e-3")
    ] + [
        pytest.param(["eval", "--mode", mode, "--threshold", value], "--threshold",
                     id=f"eval-{mode}-threshold-{value}")
        for mode in ("dense", "heatmap") for value in ("5", "0", "1", "-0.5", "nan")
    ])
    def test_malformed_flag_fails_before_any_file_is_read(self, tmp_path, capsys, argv, flag):
        # every input path is missing: only a check made before reading them can name the flag
        command, *flags = argv
        files = {"train": ["--config", "cfg.json", "--manifest", "m.json", "--out", "o.ooal"],
                 "eval": ["--ckpt", "c.ooal", "--manifest", "m.json", "--report", "r.json"],
                 "densify": ["--in", "kp.json", "--out", "o.ooal"]}
        paths = [str(tmp_path / f) if f.endswith(("json", "ooal")) else f for f in files[command]]
        assert run(command, *paths, *flags) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {flag}")
        assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def damage_world(tmp_path_factory):
    """A one-base, one-novel world, a config and a checkpoint trained on it."""
    root = tmp_path_factory.mktemp("damage")
    write_world(root, num_base=1, num_novel=1, items=1)
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"iterations": 2, "p": 1, "j": 1, "t": 1, "C": 4, "C_t": 4}))
    assert run("train", "--config", str(cfg), "--manifest", str(root / "manifest.json"),
               "--out", str(root / "model.ooal")) == 0
    return root


_damages = st.lists(st.tuples(st.sampled_from(_MANIFEST_FIELDS), _field_values),
                    min_size=2, max_size=4)


@settings(max_examples=80, deadline=None)
@given(damages=_damages)
def test_damaged_manifest_through_train_and_eval(damage_world, damages):
    doc = json.loads((damage_world / "manifest.json").read_text())
    for keys, value in damages:
        doc = damage(doc, keys, value)
    manifest = damage_world / "damaged.json"
    manifest.write_text(json.dumps(doc))
    for argv in (["train", "--config", str(damage_world / "cfg.json"), "--out",
                  str(damage_world / "out.ooal")],
                 *(["eval", "--ckpt", str(damage_world / "model.ooal"), "--mode", mode,
                    "--report", str(damage_world / "report.json")]
                   for mode in ("dense", "heatmap"))):
        argv += ["--manifest", str(manifest)]
        args = build_parser().parse_args(argv)
        try:
            args.func(args)
        except (ValueError, FormatError, CorruptionError) as exc:
            assert "\n" not in str(exc)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 0 or (code == 1 and err.getvalue().count("\n") == 1), err.getvalue()


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

    @pytest.mark.parametrize("command", ["pca", "simmap"])
    @pytest.mark.parametrize("layer", ["9", "4", "-5"])
    def test_layer_out_of_range_is_one_error(self, world_dir, tmp_path, capsys, command, layer):
        feat = str(world_dir / "feats" / "base-00-00.ooal")
        if command == "pca":
            argv = ["pca", "--features", feat]
        else:
            argv = ["simmap", "--features", feat, "--target", feat, "--patch", "1,1",
                    "--out", str(tmp_path / "s.ppm")]
        assert run("analyze", *argv, "--layer", layer) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"--layer {layer} is out of range" in err and "has 4 layers" in err
        # negative indices inside the file's layers count back from the last
        assert run("analyze", *argv, "--layer", "-4") == 0

    def test_pca_pooled_rejects_heatmap(self, world_dir, tmp_path):
        from affseg.data import load_manifest

        manifest = load_manifest(world_dir / "manifest.json")
        feats = [str(manifest.resolve(it.features)) for it in manifest.items[:2]]
        assert run("analyze", "pca", "--features", *feats,
                   "--heatmap", str(tmp_path / "x.ppm")) == 1


class TestCheckGrad:
    def test_exit_zero_on_healthy_gradients(self, capsys):
        assert run("check-grad", "--seed", "0") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("max relative error")
        # the full model and each --ablate config, every parameter of each
        for label in ("full", *ABLATIONS):
            assert any(line.startswith(f"{label} ") for line in lines), label
        assert sum(line.startswith("full ") for line in lines) == 1 + 2 + 1 + 2 + 2 * 8
        assert not any(line.startswith("td ") and "decoder." in line for line in lines)


OUTPUT_FLAGS = [("train", "--out"), ("train", "--loss-log"), ("eval", "--report"),
                ("densify", "--out"), ("pca", "--scores-csv"), ("pca", "--heatmap"),
                ("simmap", "--out"), ("simmap", "--csv")]


@pytest.mark.parametrize("bad", ["missing-directory", "directory"])
@pytest.mark.parametrize("command, flag", OUTPUT_FLAGS)
def test_bad_output_path_fails_before_anything_is_written(world_dir, cfg_path, tmp_path,
                                                          monkeypatch, capsys, command, flag,
                                                          bad):
    manifest, feat = str(world_dir / "manifest.json"), str(world_dir / "feats/base-00-00.ooal")
    ckpt, kp, out = tmp_path / "model.ooal", tmp_path / "kp.json", tmp_path / "out"
    out.mkdir()
    if command == "eval":
        assert run("train", "--config", str(cfg_path), "--manifest", manifest,
                   "--out", str(ckpt)) == 0
    kp.write_text(json.dumps({"height": 6, "width": 5, "affordances": ["grasp"],
                              "points": {"grasp": [[2, 3]]}}))
    def at(name):
        return str(out / name)

    argv = {
        "train": ["train", "--config", str(cfg_path), "--manifest", manifest,
                  "--out", at("m.ooal"), "--loss-log", at("loss.csv")],
        "eval": ["eval", "--ckpt", str(ckpt), "--manifest", manifest, "--mode", "dense",
                 "--report", at("r.json")],
        "densify": ["densify", "--in", str(kp), "--out", at("t.ooal")],
        "pca": ["analyze", "pca", "--features", feat, "--scores-csv", at("s.csv"),
                "--heatmap", at("h.ppm")],
        "simmap": ["analyze", "simmap", "--features", feat, "--target", feat, "--patch", "1,1",
                   "--out", at("s.ppm"), "--csv", at("s.csv")],
    }[command]
    bad_path = out / "missing" / "x" if bad == "missing-directory" else out
    argv[argv.index(flag) + 1] = str(bad_path)
    trained = []
    monkeypatch.setattr(training, "train", lambda *a: trained.append(a))
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag} {bad_path}"), err
    assert sorted(tmp_path.rglob("*")) == before
    assert trained == []


@pytest.mark.parametrize("command, flag, other", [
    ("train", "--out", "--loss-log"), ("train", "--loss-log", "--config"),
    ("eval", "--report", "--ckpt"), ("densify", "--out", "--in"),
    ("pca", "--scores-csv", "--heatmap"), ("pca", "--heatmap", "--features"),
    ("simmap", "--csv", "--target"),
])
def test_output_on_the_file_of_another_flag_fails_before_anything_is_read(
        world_dir, cfg_path, tmp_path, monkeypatch, capsys, command, flag, other):
    manifest, feat = str(world_dir / "manifest.json"), str(world_dir / "feats/base-00-00.ooal")
    ckpt, kp = tmp_path / "model.ooal", tmp_path / "kp.json"
    if command == "eval":
        assert run("train", "--config", str(cfg_path), "--manifest", manifest,
                   "--out", str(ckpt)) == 0
    kp.write_text(json.dumps({"height": 6, "width": 5, "affordances": ["grasp"],
                              "points": {"grasp": [[2, 3]]}}))
    argv = {
        "train": ["train", "--config", str(cfg_path), "--manifest", manifest,
                  "--out", str(tmp_path / "m.ooal"), "--loss-log", str(tmp_path / "loss.csv")],
        "eval": ["eval", "--ckpt", str(ckpt), "--manifest", manifest, "--mode", "dense",
                 "--report", str(tmp_path / "r.json")],
        "densify": ["densify", "--in", str(kp), "--out", str(tmp_path / "t.ooal")],
        "pca": ["analyze", "pca", "--features", feat, "--scores-csv", str(tmp_path / "s.csv"),
                "--heatmap", str(tmp_path / "h.ppm")],
        "simmap": ["analyze", "simmap", "--features", feat,
                   "--target", str(world_dir / "feats/base-01-00.ooal"), "--patch", "1,1",
                   "--out", str(tmp_path / "s.ppm"), "--csv", str(tmp_path / "s.csv")],
    }[command]
    # the same file by another spelling: the paths are compared once resolved
    target = Path(argv[argv.index(other) + 1])
    alias = target.parent / ".." / target.parent.name / target.name
    argv[argv.index(flag) + 1] = str(alias)
    read = []
    for mod, name in ((training, "load_config"), (training, "load_checkpoint"),
                      (cli.data, "read_json"), (cli.data, "load_manifest"),
                      (cli, "load_features")):
        monkeypatch.setattr(mod, name, lambda *a, name=name, **k: read.append(name))
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert run(*argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {flag} {alias} is the file of {other} too\n"
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before
    assert read == []


class TestErrorPaths:
    def test_unknown_flag_nonzero_exit(self):
        with pytest.raises(SystemExit) as exc:
            run("train", "--frobnicate")
        assert exc.value.code != 0

    @pytest.mark.parametrize("content, problem", [
        pytest.param(b"{not json", "is not valid JSON: Expecting property name", id="syntax"),
        pytest.param(b'{"iterations": "\xff"}', "is not UTF-8 text: 'utf-8' codec can't decode "
                     "byte 0xff", id="bytes"),
    ])
    @pytest.mark.parametrize("what", ["config", "manifest",
                                      pytest.param("keypoints file", id="keypoints")])
    def test_unreadable_json_names_its_file(self, world_dir, cfg_path, tmp_path, capsys,
                                            what, content, problem):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if what == "keypoints file":
            argv = ["densify", "--in", str(bad), "--out", str(tmp_path / "t.ooal")]
        else:
            inputs = {"config": str(cfg_path), "manifest": str(world_dir / "manifest.json"),
                      what: str(bad)}
            argv = ["train", "--config", inputs["config"], "--manifest", inputs["manifest"],
                    "--out", str(tmp_path / "x")]
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {what} {bad} {problem}"), err

    def test_unknown_config_key(self, world_dir, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text(json.dumps({"iterations": 1, "momentum": 0.9}))
        assert run("train", "--config", str(bad), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(tmp_path / "x")) == 1
        assert "momentum" in capsys.readouterr().err

    def test_feature_file_errors_name_the_file_and_the_item(self, world_dir, cfg_path,
                                                             tmp_path, capsys):
        manifest, ckpt = str(world_dir / "manifest.json"), str(tmp_path / "model.ooal")
        assert run("train", "--config", str(cfg_path), "--manifest", manifest,
                   "--out", ckpt) == 0
        feats = sorted((world_dir / "feats").iterdir())
        for path in feats:
            path.write_bytes(b"garbage!" + bytes(64))
        bad_magic = "bad magic b'garbage!', expected b'OOALFT01'"
        for argv in (("train", "--config", str(cfg_path), "--manifest", manifest,
                      "--out", str(tmp_path / "again.ooal")),
                     ("eval", "--ckpt", ckpt, "--manifest", manifest, "--mode", "dense",
                      "--report", str(tmp_path / "r.json"))):
            capsys.readouterr()
            assert run(*argv) == 1
            err = capsys.readouterr().err
            found = re.fullmatch(rf"error: item (\S+): (\S+): {re.escape(bad_magic)}\n", err)
            assert found and found[2] == str(world_dir / "feats" / f"{found[1]}.ooal"), err
        for argv in (("analyze", "pca", "--features", str(feats[0])),
                     ("analyze", "simmap", "--features", str(feats[0]), "--target",
                      str(feats[1]), "--patch", "0,0", "--out", str(tmp_path / "s.ppm"))):
            capsys.readouterr()
            assert run(*argv) == 1
            assert capsys.readouterr().err == f"error: {feats[0]}: {bad_magic}\n"

    def test_int_lr_past_the_largest_float_is_one_error(self, world_dir, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_text('{"iterations": 1, "lr": 1' + "0" * 400 + "}")
        assert run("train", "--config", str(bad), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lr must be positive and finite, got 1000")
        assert err.count("\n") == 1

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

    @pytest.mark.parametrize("target", BAD_TARGETS + [
        pytest.param({"kind": "keypoints", "points": {"grasp": [[500, 1]]}}, id="out-of-image"),
    ])
    def test_eval_on_bad_target_record(self, world_dir, cfg_path, tmp_path, capsys, target):
        ckpt = tmp_path / "model.ooal"
        assert run("train", "--config", str(cfg_path), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(ckpt)) == 0
        doc = json.loads((world_dir / "manifest.json").read_text())
        doc["items"][-1]["target"] = target  # a novel item: always evaluated
        bad = world_dir / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--ckpt", str(ckpt), "--manifest", str(bad),
                   "--mode", "heatmap", "--report", str(tmp_path / "r.json")) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and doc["items"][-1]["id"] in err

    def test_dense_eval_of_a_keypoint_item_names_it(self, world_dir, cfg_path, tmp_path, capsys):
        ckpt = tmp_path / "model.ooal"
        assert run("train", "--config", str(cfg_path), "--manifest",
                   str(world_dir / "manifest.json"), "--out", str(ckpt)) == 0
        doc = json.loads((world_dir / "manifest.json").read_text())
        item = doc["items"][-1]  # a novel item: always evaluated
        item["target"] = {"kind": "keypoints", "points": {doc["affordances"][0]: [[3, 4]]}}
        bad = world_dir / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", "--ckpt", str(ckpt), "--manifest", str(bad),
                   "--mode", "dense", "--report", str(tmp_path / "r.json")) == 1
        assert capsys.readouterr().err == (f"error: item {item['id']}: IoU needs dense-binary "
                                           f"ground truth, got 'densified-sparse'\n")
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["densify", "train", "heatmap"])
    def test_keypoint_target_numpy_cannot_allocate_is_one_line(self, world_dir, cfg_path,
                                                                tmp_path, capsys, command):
        # sides past what numpy can index fail without allocating
        side = 2**32 - 1
        manifest, ckpt = world_dir / "manifest.json", tmp_path / "model.ooal"
        doc = json.loads(manifest.read_text())
        size = rf"a {len(doc['affordances'])} x {side} x {side} target is more than numpy " \
               rf"can allocate"
        if command == "densify":
            inp = tmp_path / "kp.json"
            inp.write_text(json.dumps({"height": side, "width": side, "points": {},
                                       "affordances": doc["affordances"]}))
            argv = ["densify", "--in", str(inp), "--out", str(tmp_path / "t.ooal")]
            want = f"error: keypoints file {re.escape(str(inp))}: {size}\n"
        else:
            assert run("train", "--config", str(cfg_path), "--manifest", str(manifest),
                       "--out", str(ckpt)) == 0
            for item in doc["items"]:
                item["target"] = {"kind": "keypoints", "points": {doc["affordances"][0]: [[1, 2]]}}
                path = world_dir / item["features"]
                s = load_features(path)
                save_features(FeatureStack(s.layers, s.cls, s.grid, (side, side)), path)
            manifest.write_text(json.dumps(doc))
            if command == "train":
                argv = ["train", "--config", str(cfg_path), "--out", str(tmp_path / "again")]
            else:
                argv = ["eval", "--ckpt", str(ckpt), "--mode", "heatmap",
                        "--report", str(tmp_path / "r.json")]
            argv += ["--manifest", str(manifest)]
            want = rf"error: item \S+: {size}\n"
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(want, err), err

    def test_inconsistent_manifest_is_one_error(self, world_dir, cfg_path, tmp_path, capsys):
        doc = json.loads((world_dir / "manifest.json").read_text())
        doc["items"].append(doc["items"][0])
        bad = world_dir / "bad.json"
        bad.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("train", "--config", str(cfg_path), "--manifest", str(bad),
                   "--out", str(tmp_path / "model.ooal")) == 1
        err = capsys.readouterr().err
        assert err == f"error: manifest {bad}: duplicate item id {doc['items'][0]['id']}\n"

    def test_bad_patch_spec(self, world_dir, tmp_path):
        from affseg.data import load_manifest

        manifest = load_manifest(world_dir / "manifest.json")
        feat = str(manifest.resolve(manifest.items[0].features))
        assert run("analyze", "simmap", "--features", feat, "--target", feat,
                   "--patch", "zz", "--out", str(tmp_path / "s.ppm")) == 1


def test_declared_console_script_lists_every_subcommand(capsys):
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["affseg"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("gen-synth", "densify", "train", "eval", "analyze", "check-grad"):
        assert command in out


def test_readme_walkthrough_parses():
    # every `affseg` command of the README's sh blocks, continuations joined and
    # comments dropped, and the config its heredoc writes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = [b.replace("\\\n", " ") for b in re.findall(r"```sh\n(.*?)```", readme, re.S)]
    commands = [shlex.split(line, comments=True)[1:] for b in blocks for line in b.splitlines()
                if line.startswith("affseg ")]
    configs = [c for b in blocks for c in re.findall(r"<<'EOF'\n(.*?)\nEOF\n", b, re.S)]
    assert len(commands) == 8 and len(configs) == 1
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)  # exits 2 on a command or flag it does not take
    training._config_from_dict(json.loads(configs[0]))


_accepted_configs = st.fixed_dictionaries(
    {"iterations": st.integers(0, 3), "C": st.integers(1, 8)},
    optional={"lr": st.floats(1e-300, 1e300) | st.integers(1, 10**6),
              "seed": st.integers(0, 2**64), "p": st.integers(0, 4), "j": st.integers(0, 5),
              "t": st.integers(0, 3), "gate": st.booleans(), "C_t": st.integers(1, 8),
              "log_every": st.integers(1, 4)},
)
_small_worlds = st.fixed_dictionaries({
    "--seed": st.integers(0, 2**32), "--objects": st.integers(1, 3),
    "--novel": st.integers(0, 2), "--parts": st.integers(1, 4), "--items": st.integers(1, 2),
    "--noise": st.floats(0.0, 1.0), "--feature-dim": st.integers(1, 8),
    "--layers": st.integers(1, 4),
})


def run_or_fail_in_one_line(argv) -> None:
    """Run one command as ``main`` would: it returns, or fails with one of
    the program's one-line errors (never KeyError, IndexError, TypeError)."""
    args = build_parser().parse_args(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            args.func(args)
    except (ValueError, FormatError, CorruptionError, ArithmeticError) as exc:
        assert "\n" not in str(exc), (argv, str(exc))


@settings(max_examples=30, deadline=None)
@given(cfg=_accepted_configs, world=_small_worlds, k=st.integers(1, 4))
def test_any_accepted_config_runs_every_command(tmp_path_factory, cfg, world, k):
    root = tmp_path_factory.mktemp("prop")
    (root / "cfg.json").write_text(json.dumps(cfg))
    training.load_config(root / "cfg.json")  # accepted
    run_or_fail_in_one_line(["gen-synth", *(str(x) for kv in world.items() for x in kv),
                               "--out", str(root / "w")])
    if not (root / "w/manifest.json").exists():
        return
    manifest, ckpt = str(root / "w/manifest.json"), str(root / "model.ooal")
    run_or_fail_in_one_line(["train", "--config", str(root / "cfg.json"), "--manifest",
                               manifest, "--out", ckpt])
    if (root / "model.ooal").exists():
        for mode in ("dense", "heatmap"):
            run_or_fail_in_one_line(["eval", "--ckpt", ckpt, "--manifest", manifest,
                                       "--mode", mode, "--report", str(root / "r.json")])
    feats = sorted(str(p) for p in (root / "w/feats").iterdir())
    run_or_fail_in_one_line(["analyze", "pca", "--features", *feats[:2], "-k", str(k),
                               "--scores-csv", str(root / "s.csv")])
    run_or_fail_in_one_line(["analyze", "simmap", "--features", feats[0], "--target",
                               feats[-1], "--patch", f"{k - 1},0", "--out", str(root / "s.ppm")])
