"""Command-line surface.

Subcommands: gen-synth, densify, train, eval, analyze (pca | simmap), and
check-grad. Every command is deterministic given its flags and seeds; any
error path exits nonzero with a one-line diagnostic.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import analysis, data, gradcheck, metrics, synth, training
from .features import load_features, save_features

# ``train --ablate X`` leaves one module out of the model by overriding its config
ABLATIONS = {"tpl": {"p": 0}, "mlff": {"j": 0}, "td": {"t": 0}, "ctm": {"gate": False}}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - single-line diagnostics by contract
        print(f"error: {exc}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="affseg")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-synth", help="emit a synthetic world: manifest, features, targets")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--objects", type=int, required=True, help="number of base objects")
    g.add_argument("--novel", type=int, default=2)
    g.add_argument("--parts", type=int, default=4)
    g.add_argument("--items", type=int, default=3, help="items per object")
    g.add_argument("--noise", type=float, default=0.05)
    g.add_argument("--feature-dim", type=int, default=32)
    g.add_argument("--layers", type=int, default=4)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_synth)

    d = sub.add_parser("densify", help="keypoints JSON -> dense target file")
    d.add_argument("--in", dest="inp", required=True)
    d.add_argument("--sigma", type=float, default=data.DEFAULT_SIGMA)
    d.add_argument("--out", required=True)
    d.set_defaults(func=cmd_densify)

    t = sub.add_parser("train", help="one-shot training run")
    t.add_argument("--config", required=True)
    t.add_argument("--manifest", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--ablate", choices=tuple(ABLATIONS),
                   help="leave one module out: sets p 0, j 0, t 0 or gate false")
    t.add_argument("--sigma", type=float, default=data.DEFAULT_SIGMA)
    t.add_argument("--loss-log", help="write iteration,loss CSV here")
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", help="evaluate a checkpoint over seen/unseen splits")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--manifest", required=True)
    e.add_argument("--mode", choices=("heatmap", "dense"), required=True)
    e.add_argument("--report", required=True)
    e.add_argument("--sigma", type=float, default=data.DEFAULT_SIGMA)
    e.add_argument("--threshold", type=float, default=0.5)
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("analyze", help="feature analysis tools")
    asub = a.add_subparsers(dest="analysis", required=True)

    ap = asub.add_parser("pca", help="PCA of patch features")
    ap.add_argument("--features", nargs="+", required=True, help=">1 file pools patches across images")
    ap.add_argument("--layer", type=int, default=-1)
    ap.add_argument("-k", "--components", type=int, default=3)
    ap.add_argument("--scores-csv")
    ap.add_argument("--heatmap", help="render first-component scores (single input only)")
    ap.set_defaults(func=cmd_pca)

    am = asub.add_parser("simmap", help="cosine similarity of one patch against another image")
    am.add_argument("--features", required=True, help="source image features")
    am.add_argument("--target", required=True, help="target image features")
    am.add_argument("--layer", type=int, default=-1)
    am.add_argument("--patch", required=True, help="ROW,COL of the query patch in the source grid")
    am.add_argument("--out", required=True, help="output PPM path")
    am.add_argument("--csv")
    am.set_defaults(func=cmd_simmap)

    c = sub.add_parser("check-grad", help="finite-difference gradient verification")
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(func=cmd_check_grad)

    return parser


def cmd_gen_synth(args) -> int:
    world = synth.make_world(
        seed=args.seed,
        num_base=args.objects,
        num_novel=args.novel,
        num_parts=args.parts,
        feature_dim=args.feature_dim,
        num_layers=args.layers,
    )
    synth.check_noise(args.noise)
    if args.items < 1:
        raise ValueError(f"--items must be >= 1, got {args.items}")
    out = Path(args.out)
    (out / "feats").mkdir(parents=True, exist_ok=True)
    (out / "targets").mkdir(parents=True, exist_ok=True)
    items = []
    for obj in world.objects:
        target = data.AffordanceTarget(M=synth.synth_target(world, obj.object_id))
        tpath = f"targets/{obj.object_id}.ooal"
        data.save_target(target, out / tpath)
        for v in range(args.items):
            stack = synth.synth_vision_encode(world, obj.object_id, args.noise, variant=v)
            fpath = f"feats/{obj.object_id}-{v:02d}.ooal"
            save_features(stack, out / fpath)
            items.append(
                data.ManifestItem(
                    item_id=f"{obj.object_id}-{v:02d}",
                    object_id=obj.object_id,
                    features=fpath,
                    target={"kind": "mask", "path": tpath},
                )
            )
    manifest = data.DatasetManifest(
        affordances=world.affordances,
        objects=tuple((o.object_id, o.novel) for o in world.objects),
        items=tuple(items),
        root=out,
    )
    data.save_manifest(manifest, out / "manifest.json")
    print(f"wrote {len(items)} items over {len(world.objects)} objects to {out}")
    return 0


def cmd_densify(args) -> int:
    data.check_sigma(args.sigma, "--sigma")
    where = f"keypoints file {args.inp}"
    doc = json.loads(Path(args.inp).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must hold a JSON object")
    for key in ("points", "height", "width", "affordances"):
        if key not in doc:
            raise ValueError(f"{where} has no {key!r} key")
        if key in ("height", "width") and (type(doc[key]) is not int or doc[key] < 1):
            raise ValueError(f"{where}: {key} must be a positive integer, got {doc[key]!r}")
    kp = data.parse_points(doc["points"], where)
    affordances = data.parse_affordances(doc["affordances"], where)
    target = data.densify(kp, args.sigma, doc["height"], doc["width"], affordances)
    data.save_target(target, args.out)
    print(f"wrote {target.shape[0]}x{target.shape[1]}x{target.shape[2]} target to {args.out}")
    return 0


def cmd_train(args) -> int:
    data.check_sigma(args.sigma, "--sigma")
    cfg = training.load_config(args.config)
    if args.ablate:
        cfg = dataclasses.replace(cfg, **ABLATIONS[args.ablate])
    manifest = data.load_manifest(args.manifest)
    chosen = data.build_oneshot_trainset(manifest, cfg.seed)
    trainset = [data.load_item(manifest, it, sigma=args.sigma) for it in chosen]
    params, log = training.train(cfg, trainset, manifest.affordances)
    _, enc = training.build_text_pipeline(cfg, manifest.affordances)
    ckpt = training.Checkpoint(params=params, enc=enc, affordances=manifest.affordances, cfg=cfg)
    training.save_checkpoint(ckpt, args.out)
    if args.loss_log:
        training.save_loss_log(log, args.loss_log)
    final = f", final loss {log[-1][1]:.6f}" if log else ""
    print(f"trained {cfg.iterations} iterations{final}, checkpoint {args.out}")
    return 0


def cmd_eval(args) -> int:
    data.check_sigma(args.sigma, "--sigma")
    if not 0.0 < args.threshold < 1.0:
        raise ValueError(f"--threshold must be in (0, 1), got {args.threshold!r}")
    ckpt = training.load_checkpoint(args.ckpt)
    manifest = data.load_manifest(args.manifest)
    if tuple(manifest.affordances) != ckpt.affordances:
        raise ValueError("manifest affordances differ from checkpoint vocabulary")
    chosen = data.build_oneshot_trainset(manifest, ckpt.cfg.seed)
    seen_items, unseen_items = data.split_eval_sets(manifest, chosen)

    reports = {}
    for split, items in (("seen", seen_items), ("unseen", unseen_items)):
        reports[split] = metrics.evaluate_checkpoint(
            ckpt, manifest, items, args.mode, sigma=args.sigma, threshold=args.threshold
        )
    doc = {
        "mode": args.mode,
        "seen": reports["seen"].to_json(),
        "unseen": reports["unseen"].to_json(),
    }
    if args.mode == "dense":
        s = reports["seen"].aggregates.get("miou")
        u = reports["unseen"].aggregates.get("miou")
        doc["hiou"] = metrics.hiou(s, u) if s is not None and u is not None else None
    Path(args.report).write_text(json.dumps(doc, indent=2) + "\n")
    print_report_table(doc)
    return 0


def print_report_table(doc) -> None:
    def fmt(v):
        return "  n/a" if v is None else f"{v:.4f}"

    if doc["mode"] == "heatmap":
        print(f"{'split':<8} {'KLD↓':>8} {'SIM↑':>8} {'NSS↑':>8}")
        for split in ("seen", "unseen"):
            agg = doc[split]["aggregates"]
            print(f"{split:<8} {fmt(agg['kld']):>8} {fmt(agg['sim']):>8} {fmt(agg['nss']):>8}")
    else:
        seen = doc["seen"]["aggregates"].get("miou")
        unseen = doc["unseen"]["aggregates"].get("miou")
        print(f"{'Seen':>8} {'Unseen':>8} {'hIoU':>8}")
        print(f"{fmt(seen):>8} {fmt(unseen):>8} {fmt(doc.get('hiou')):>8}")


def check_layer(stack, layer: int, path) -> None:
    """Reject a ``--layer`` index outside the file's layers; negative indices
    count back from the last layer."""
    count = len(stack.layers)
    if not -count <= layer < count:
        raise ValueError(f"--layer {layer} is out of range: {path} has {count} layers")


def cmd_pca(args) -> int:
    stacks = [load_features(p) for p in args.features]
    for path, stack in zip(args.features, stacks):
        check_layer(stack, args.layer, path)
    patches = np.vstack([s.layers[args.layer] for s in stacks])
    result = analysis.pca_project(patches, args.components)
    ratios = result.explained_variance / max(result.total_variance, 1e-300)
    print("explained variance ratios:", " ".join(f"{r:.4f}" for r in ratios))
    if args.scores_csv:
        with open(args.scores_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"pc{i + 1}" for i in range(result.scores.shape[1])])
            writer.writerows(result.scores.tolist())
    if args.heatmap:
        if len(stacks) != 1:
            raise ValueError("--heatmap needs exactly one --features input")
        grid = stacks[0].grid
        analysis.render_heatmap(result.scores[:, 0].reshape(grid), args.heatmap)
    return 0


def cmd_simmap(args) -> int:
    src = load_features(args.features)
    dst = load_features(args.target)
    check_layer(src, args.layer, args.features)
    check_layer(dst, args.layer, args.target)
    try:
        row, col = (int(x) for x in args.patch.split(","))
    except ValueError as exc:
        raise ValueError(f"--patch wants ROW,COL, got {args.patch!r}") from exc
    h_p, w_p = src.grid
    if not (0 <= row < h_p and 0 <= col < w_p):
        raise ValueError(f"patch ({row}, {col}) outside grid {src.grid}")
    query = src.layers[args.layer][row * w_p + col]
    smap = analysis.similarity_map(query, dst, layer=args.layer)
    analysis.render_heatmap(smap, args.out)
    if args.csv:
        np.savetxt(args.csv, smap, delimiter=",")
    print(f"similarity range [{smap.min():.4f}, {smap.max():.4f}] written to {args.out}")
    return 0


def cmd_check_grad(args) -> int:
    """The finite-difference check of the full model and of each ``--ablate`` config."""
    worst = 0.0
    for label, overrides in {"full": {}, **ABLATIONS}.items():
        max_err, per_param = gradcheck.run_check(seed=args.seed, **overrides)
        for name in sorted(per_param):
            print(f"{label:<5} {name:<28} rel err {per_param[name]:.3e}")
        worst = max(worst, max_err)
    print(f"max relative error {worst:.3e} (tolerance {gradcheck.REL_TOL:.0e})")
    return 0 if worst < gradcheck.REL_TOL else 1


if __name__ == "__main__":
    sys.exit(main())
