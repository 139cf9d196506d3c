"""Acceptance suite: one test per exit criterion, each at its stated
tolerance, each printing a pass/fail line. Run with -v (or -s) to see the
per-criterion lines."""

import json
import math

import numpy as np
import pytest

from affseg import gradcheck, metrics, synth, training
from affseg.cli import main as cli_main
from affseg.data import AffordanceTarget, LoadedItem
from affseg.decoder import DecoderParams, cls_mask, decode_cached, decoder_layer_cached
from affseg.features import load_features, save_features
from affseg.metrics import hiou, iou_counts, kld, miou, nss, sim
from affseg.training import TrainConfig
from tests.oracles import central_difference, max_rel_err
from tests.test_decoder import layer_params


def report(criterion: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" ({detail})" if detail else "")
    print(line)
    assert ok, line


# ---------------------------------------------------------------------- 1


def test_criterion_1_hiou_split_arithmetic():
    a = hiou(72.0, 60.8)
    b = hiou(74.6, 59.7)
    report(
        "criterion 1: hIoU of the reference seen/unseen split scores",
        abs(a - 66.0) < 0.15 and abs(b - 66.4) < 0.15,
        f"hiou(72.0, 60.8)={a:.2f}, hiou(74.6, 59.7)={b:.2f}",
    )


# ---------------------------------------------------------------------- 2


def test_criterion_2_gradient_suite():
    # N=3, L=4, C=8, C_v=12, p=2, j=2, t=2; step 1e-5, float64 throughout;
    # finite differences recomputed here with the independent test oracle
    params, enc, table, item = gradcheck.build_problem(
        seed=0, num_classes=3, grid=(2, 2), C=8, C_v=12, p=2, j=2, t=2
    )

    def loss():
        pred, _ = training.forward(params, enc, table, item.stack)
        return training.bce_loss(pred, item.target)

    _, analytic = training.backward(params, item, enc, table)
    names = [name for name, _ in training.param_items(params)]
    arrays = [arr for _, arr in training.param_items(params)]
    numeric = central_difference(loss, arrays, step=1e-5)
    worst = max(max_rel_err(analytic[n], fd) for n, fd in zip(names, numeric))
    report(
        "criterion 2: analytic gradients match central finite differences",
        worst < 1e-4,
        f"max rel err {worst:.3e} over {sum(a.size for a in arrays)} parameters",
    )


# ---------------------------------------------------------------------- 3


def test_criterion_3_metric_oracles():
    checks = []
    checks.append(abs(kld(np.array([[0.9, 0.1]]), np.array([[0.5, 0.5]]))
                      - (0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1))) < 1e-3)
    checks.append(abs(kld(np.array([[0.5, 0.5]]), np.array([[0.9, 0.1]]))
                      - (0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5))) < 1e-3)
    m = np.random.default_rng(0).random((4, 4)) + 0.1
    checks.append(kld(m, m) <= 1e-9)
    checks.append(abs(sim(np.array([[0.7, 0.3]]), np.array([[0.5, 0.5]])) - 0.8) < 1e-12)
    checks.append(abs(sim(m, 2.0 * m) - 1.0) < 1e-12)
    g = np.random.default_rng(1).random((4, 4)) + 0.1
    checks.append(abs(sim(m, g) - sim(g, m)) < 1e-12)           # symmetry
    checks.append(abs(kld(m, g) - kld(g, m)) > 1e-3)            # asymmetry witness
    fix = np.array([[1.0, 0.0], [0.0, 0.0]])
    checks.append(abs(nss(fix, fix > 0.5) - 1.7321) < 1e-3)
    checks.append(nss(np.full((2, 2), 5.0), fix > 0.5) == 0.0)
    s = np.array([[0.9, 0.8], [0.7, 0.1]]).reshape(2, 2, 1)
    y = np.array([[1.0, 1.0], [0.0, 0.0]]).reshape(2, 2, 1)
    from affseg.decoder import Prediction

    pred = Prediction(logits=np.zeros((1, 1)), upsampled=s, grid=(1, 1))
    inter, union = iou_counts(pred, AffordanceTarget(M=y), 0.5)
    checks.append(abs(inter[0] / union[0] - 2.0 / 3.0) < 1e-12)
    report(
        "criterion 3: metric hand-arithmetic oracle suite",
        all(checks),
        f"{sum(checks)}/{len(checks)} oracle cases",
    )


# ---------------------------------------------------------------------- 4


def test_criterion_4_decoder_invariants():
    rng = np.random.default_rng(4)
    C = 8
    text = rng.standard_normal((3, C))
    visual = rng.standard_normal((6, C))
    cls = rng.standard_normal(4)
    layers = [layer_params(C=C, cls_dim=4, rng=rng, identity=False) for _ in range(2)]
    dp = DecoderParams(layers=layers)

    perm = rng.permutation(6)
    perm_ok = np.abs(
        decode_cached(text, visual[perm], cls, dp)[0] - decode_cached(text, visual, cls, dp)[0]
    ).max() <= 1e-10

    _, cache = decoder_layer_cached(text, visual, cls, layers[0])
    rows_ok = np.abs(cache.attn.sum(axis=1) - 1.0).max() <= 1e-12

    gate = cls_mask(cls * 100, visual @ layers[0].wk * 100, layers[0].wc)
    gate_ok = bool((gate > 0).all() and (gate < 1).all()
                   and (cache.gate > 0).all() and (cache.gate < 1).all())

    ident_ok = np.array_equal(decode_cached(text, visual, cls, DecoderParams())[0], text)

    report(
        "criterion 4: decoder invariants (permutation, row sums, gate range, t=0)",
        perm_ok and rows_ok and gate_ok and ident_ok,
    )


# ---------------------------------------------------------------------- 5 & 6


@pytest.fixture(scope="module")
def overfit_world():
    return synth.make_world(seed=7, num_base=8, num_novel=2, num_parts=4)


@pytest.fixture(scope="module")
def overfit_run(overfit_world):
    world = overfit_world

    def load(obj, v):
        stack = synth.synth_vision_encode(world, obj.object_id, 0.05, variant=v)
        target = AffordanceTarget(M=synth.synth_target(world, obj.object_id))
        return LoadedItem(f"{obj.object_id}-{v:02d}", obj.object_id, stack, target)

    train_items = [load(o, 0) for o in world.objects if not o.novel]
    unseen_items = [load(o, v) for o in world.objects if o.novel for v in (0, 1)]
    cfg = TrainConfig(lr=0.01, iterations=2000, seed=7, p=8, j=3, t=2,
                      C=64, C_t=64, log_every=100)
    params, log = training.train(cfg, train_items, world.affordances)
    return cfg, params, log, train_items, unseen_items


def split_miou(params, cfg, world, items):
    table, enc = training.build_text_pipeline(cfg, world.affordances)
    inter = np.zeros(len(world.affordances))
    union = np.zeros(len(world.affordances))
    for item in items:
        pred, _ = training.forward(params, enc, table, item.stack)
        i, u = iou_counts(pred, item.target, 0.5)
        inter += i
        union += u
    return miou(inter, union)


def test_criterion_5_oneshot_overfit(overfit_world, overfit_run):
    cfg, params, log, train_items, _ = overfit_run
    final_bce = log[-1][1]
    train_miou = split_miou(params, cfg, overfit_world, train_items)
    report(
        "criterion 5: one-shot overfit (BCE < 0.05, train mIoU >= 0.9, <= 2000 iters)",
        final_bce < 0.05 and train_miou >= 0.9,
        f"BCE {final_bce:.4f}, mIoU {train_miou:.4f}",
    )


def test_criterion_6_generalization_by_correspondence(overfit_world, overfit_run):
    cfg, params, _, _, unseen_items = overfit_run
    trained = split_miou(params, cfg, overfit_world, unseen_items)
    baseline = split_miou(
        training.init_model(cfg, overfit_world.feature_dim), cfg, overfit_world, unseen_items
    )
    report(
        "criterion 6: unseen-object mIoU >= 0.5 and above untrained baseline",
        trained >= 0.5 and trained > baseline,
        f"trained {trained:.4f} vs untrained {baseline:.4f}",
    )


# ---------------------------------------------------------------------- 7


def test_criterion_7_ablation_structure(tmp_path):
    world_dir = tmp_path / "world"
    assert cli_main(["gen-synth", "--seed", "7", "--objects", "8", "--novel", "2",
                     "--items", "2", "--out", str(world_dir)]) == 0
    cfg = {"lr": 0.01, "iterations": 40, "seed": 7, "p": 8, "j": 3, "t": 2,
           "C": 64, "C_t": 64, "log_every": 20}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    def train_to(name, *extra):
        out = tmp_path / name
        code = cli_main(["train", "--config", str(cfg_path), "--manifest",
                         str(world_dir / "manifest.json"), "--out", str(out), *extra])
        return code, out

    code, plain = train_to("plain.ooal")
    assert code == 0
    ok = True
    details = []
    for flag in ("tpl", "mlff", "td", "ctm"):
        code, out = train_to(f"{flag}.ooal", "--ablate", flag)
        differs = out.read_bytes() != plain.read_bytes()
        ok = ok and code == 0 and differs
        details.append(f"{flag}:{'ok' if code == 0 and differs else 'FAIL'}")
    report("criterion 7: ablation variants train and differ bytewise", ok,
           " ".join(details))


# ---------------------------------------------------------------------- 8


def test_criterion_8_determinism_and_roundtrips(tmp_path):
    world_dir = tmp_path / "world"
    cli_main(["gen-synth", "--seed", "3", "--objects", "3", "--novel", "1",
              "--items", "2", "--out", str(world_dir)])
    cfg = {"lr": 0.01, "iterations": 25, "seed": 3, "p": 4, "j": 2, "t": 1,
           "C": 32, "C_t": 32, "log_every": 10}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))

    ckpts = []
    for name in ("a.ooal", "b.ooal"):
        out = tmp_path / name
        cli_main(["train", "--config", str(cfg_path), "--manifest",
                  str(world_dir / "manifest.json"), "--out", str(out)])
        ckpts.append(out.read_bytes())
    train_ok = ckpts[0] == ckpts[1]

    # every file format round-trips bit-exactly
    feat_path = next((world_dir / "feats").glob("*.ooal"))
    stack = load_features(feat_path)
    save_features(stack, tmp_path / "feat2.ooal")
    feat_ok = feat_path.read_bytes() == (tmp_path / "feat2.ooal").read_bytes()

    from affseg.data import load_target, save_target

    tgt_path = next((world_dir / "targets").glob("*.ooal"))
    save_target(load_target(tgt_path), tmp_path / "tgt2.ooal")
    tgt_ok = tgt_path.read_bytes() == (tmp_path / "tgt2.ooal").read_bytes()

    ckpt = training.load_checkpoint(tmp_path / "a.ooal")
    training.save_checkpoint(ckpt, tmp_path / "c.ooal")
    ckpt_ok = (tmp_path / "a.ooal").read_bytes() == (tmp_path / "c.ooal").read_bytes()

    report(
        "criterion 8: bitwise training determinism and bit-exact round-trips",
        train_ok and feat_ok and tgt_ok and ckpt_ok,
        f"train:{train_ok} features:{feat_ok} targets:{tgt_ok} checkpoint:{ckpt_ok}",
    )
