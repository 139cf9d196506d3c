"""The three benchmark workloads.

Each workload has a set-up (timed as ``setup_s``), a timed unit (``step``)
that the window in ``run.py`` repeats for a given number of seconds, and
checks on what the window produced. An operation is one SGD step
(train-readme), one eval item (eval-dense) or one query (query-heatmap-224).
Every operation that raises is recorded with its exception type and message
and counted as failed; nothing is retried or redrawn. Known defects of the
program that the workloads' inputs stay clear of are probed after the window
and reported under ``known_defects``.

Only public affseg calls are made, through module attributes, so that
``tracing.instrument`` can put spans around them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from affseg import data, metrics, training

from drift import ReferenceClock
from worlds import Scale, edge_keypoint_probe, train_config, write_world


@dataclass
class Window:
    """What one timed window did. ``units`` holds (wall seconds, operations,
    ok, drift scale) per timed call: a training run, a two-split eval pass,
    or a query. The drift scale comes from ``drift.ReferenceClock``."""

    outputs: dict
    clock: ReferenceClock
    units: list[tuple[float, int, bool, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[dict] = field(default_factory=list)

    def timed(self, tracer, ops: int, fn, **where):
        """Run *fn* as one timed unit of *ops* operations -> (ok, result).
        If it raises, the exception is recorded and the ops count as failed."""
        op = len(self.units)
        scale = self.clock.scale()
        tracer.op = op
        self.attempted += ops
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # boundary: record, do not retry
            self.units.append((perf_counter() - t0, ops, False, scale))
            self.failed += ops
            message = str(exc).splitlines()[0] if str(exc) else ""
            self.failures.append(
                {"op": op, "type": type(exc).__name__, "message": message, **where}
            )
            return False, exc
        finally:
            tracer.op = None
        self.units.append((perf_counter() - t0, ops, True, scale))
        return True, result


@dataclass
class Check:
    gates: dict[str, tuple[bool, str]]
    quality: dict[str, tuple[float | None, str]]
    # defect name -> {"present": bool, "detail": str}
    defects: dict[str, dict] = field(default_factory=dict)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _load_trainset(manifest, cfg):
    chosen = data.build_oneshot_trainset(manifest, cfg.seed)
    return chosen, [data.load_item(manifest, it) for it in chosen]


def _save_and_reload(manifest, cfg, params, path: Path):
    """Save a checkpoint and load it back, the way ``affseg train`` then
    ``affseg eval`` would."""
    _, enc = training.build_text_pipeline(cfg, manifest.affordances)
    ckpt = training.Checkpoint(params=params, enc=enc, affordances=manifest.affordances, cfg=cfg)
    training.save_checkpoint(ckpt, path)
    return training.load_checkpoint(path)


def _train_checkpoint(manifest, cfg, trainset, path: Path):
    params, _ = training.train(cfg, trainset, manifest.affordances)
    return _save_and_reload(manifest, cfg, params, path)


class TrainReadme:
    name = "train-readme"
    op_name = "step"
    min_units = 1

    def setup(self, scale: Scale, seed: int, work: Path):
        manifest = data.load_manifest(write_world(scale.train_world, seed, work))
        cfg = train_config(scale, scale.train_steps)
        chosen, trainset = _load_trainset(manifest, cfg)
        return {"manifest": manifest, "cfg": cfg, "chosen": chosen, "trainset": trainset,
                "work": work}

    def new_window(self, state, clock) -> Window:
        return Window(outputs={"logs": [], "params": None}, clock=clock)

    def step(self, state, win: Window, tracer) -> bool:
        """One training run; False after a failure, which ends the window."""
        cfg, manifest = state["cfg"], state["manifest"]
        ok, result = win.timed(
            tracer, cfg.iterations,
            lambda: training.train(cfg, state["trainset"], manifest.affordances),
        )
        if ok:
            win.outputs["params"], log = result
            win.outputs["logs"].append(log)
        return ok

    def check(self, state, win: Window) -> Check:
        logs, params = win.outputs["logs"], win.outputs["params"]
        cfg, manifest = state["cfg"], state["manifest"]
        gates, quality = {}, {}
        if not logs:
            gates["train.completed"] = (False, "no training run completed")
            return Check(gates, quality)
        same = all(log == logs[0] for log in logs)
        gates["train.loss_trajectory_identical"] = (same, f"{len(logs)} runs")
        final = logs[0][-1][1]
        quality["train_final_loss"] = (final, "bce")
        gates["train.final_loss_below_0.05"] = (final < 0.05, f"{final!r}")

        loaded = _save_and_reload(manifest, cfg, params, state["work"] / "model.ooal")
        same = training.params_checksum(loaded.params) == training.params_checksum(params)
        gates["train.checkpoint_roundtrip"] = (same, "parameters survive save/load bitwise")
        report = metrics.evaluate_checkpoint(loaded, manifest, state["chosen"], "dense")
        train_miou = report.aggregates["miou"]
        quality["train_miou"] = (train_miou, "IoU")
        gates["train.train_miou_at_least_0.9"] = (train_miou >= 0.9, f"{train_miou!r}")
        return Check(gates, quality)

    def fingerprint(self, win: Window) -> str:
        logs, params = win.outputs["logs"], win.outputs["params"]
        if not logs:
            return ""
        return _digest(repr(logs[0]) + training.params_checksum(params).hex())

    def probe(self, state, win: Window):
        """(params, enc, table, items) for the composition check."""
        cfg, manifest = state["cfg"], state["manifest"]
        table, enc = training.build_text_pipeline(cfg, manifest.affordances)
        init = training.init_model(cfg, state["trainset"][0].stack.feature_dim)
        items = state["trainset"][:2]
        trained = win.outputs["params"]
        return [(mp, enc, table, items) for mp in (init, trained) if mp is not None]

    def named_metrics(self, summary, check: Check) -> dict:
        return {
            "train_steps_per_s": (summary["ops_per_s"], "steps/s"),
            "train_final_loss": check.quality.get("train_final_loss", (None, "bce")),
        }


class EvalDense:
    name = "eval-dense"
    op_name = "eval item"
    min_units = 1

    def setup(self, scale: Scale, seed: int, work: Path):
        manifest = data.load_manifest(write_world(scale.eval_world, seed, work))
        cfg = train_config(scale, scale.train_steps)
        chosen, trainset = _load_trainset(manifest, cfg)
        ckpt = _train_checkpoint(manifest, cfg, trainset, work / "model.ooal")
        seen, unseen = data.split_eval_sets(manifest, chosen)
        return {"manifest": manifest, "ckpt": ckpt, "seen": seen, "unseen": unseen}

    def new_window(self, state, clock) -> Window:
        return Window(outputs={"digests": [], "first": None}, clock=clock)

    def step(self, state, win: Window, tracer) -> bool:
        """One pass: each split submitted whole, then hIoU. False after a
        failure, which ends the window."""
        ckpt, manifest = state["ckpt"], state["manifest"]
        splits = {"seen": state["seen"], "unseen": state["unseen"]}

        def eval_pass():
            reports = {
                split: metrics.evaluate_checkpoint(ckpt, manifest, items, "dense")
                for split, items in splits.items()
            }
            hiou = metrics.hiou(
                reports["seen"].aggregates["miou"], reports["unseen"].aggregates["miou"]
            )
            return {split: r.to_json() for split, r in reports.items()} | {"hiou": hiou}

        ok, doc = win.timed(tracer, sum(len(items) for items in splits.values()), eval_pass)
        if ok:
            text = json.dumps(doc, sort_keys=True)
            win.outputs["digests"].append(_digest(text))
            if win.outputs["first"] is None:
                win.outputs["first"] = json.loads(text)
        return ok

    def check(self, state, win: Window) -> Check:
        digests, first = win.outputs["digests"], win.outputs["first"]
        gates, quality = {}, {}
        if first is None:
            gates["eval.completed"] = (False, "no eval pass completed")
            return Check(gates, quality)
        same = len(set(digests)) == 1
        gates["eval.reports_identical"] = (same, f"{len(digests)} passes")
        seen = first["seen"]["aggregates"]["miou"]
        unseen = first["unseen"]["aggregates"]["miou"]
        quality["eval_hiou"] = (first["hiou"], "IoU")
        quality["eval_seen_miou"] = (seen, "IoU")
        quality["eval_unseen_miou"] = (unseen, "IoU")
        gates["eval.unseen_miou_at_least_0.5"] = (unseen >= 0.5, f"{unseen!r}")
        return Check(gates, quality)

    def fingerprint(self, win: Window) -> str:
        digests = win.outputs["digests"]
        return digests[0] if digests else ""

    def probe(self, state, win: Window):
        ckpt, manifest = state["ckpt"], state["manifest"]
        items = [data.load_item(manifest, it) for it in state["seen"][:2] + state["unseen"][:1]]
        return [(ckpt.params, ckpt.enc, ckpt.text_table(), items)]

    def named_metrics(self, summary, check: Check) -> dict:
        return {
            "eval_items_per_s": (summary["ops_per_s"], "items/s"),
            "eval_hiou": check.quality.get("eval_hiou", (None, "IoU")),
        }


class QueryHeatmap:
    name = "query-heatmap-224"
    op_name = "query"
    min_units = 100  # so that ten samples lie beyond the 90th percentile

    def setup(self, scale: Scale, seed: int, work: Path):
        manifest = data.load_manifest(write_world(scale.query_world, seed, work))
        cfg = train_config(scale, scale.query_train_steps)
        _, trainset = _load_trainset(manifest, cfg)
        ckpt = _train_checkpoint(manifest, cfg, trainset, work / "model.ooal")
        return {"manifest": manifest, "ckpt": ckpt, "seed": seed,
                "image_size": scale.query_world.image_size}

    def new_window(self, state, clock) -> Window:
        return Window(clock=clock, outputs={
            "rng": np.random.default_rng([state["seed"], 0x9E7]),
            "order": [],
            "answers": {},
            "mismatched": [],
            "sequence": [],
        })

    def step(self, state, win: Window, tracer) -> bool:
        """One query of a closed loop with one client: the next query starts
        when this one returns. Items are visited in seeded random order,
        reshuffled every cycle. A failed query does not end the window."""
        ckpt, manifest = state["ckpt"], state["manifest"]
        out = win.outputs
        if not out["order"]:
            out["order"] = list(out["rng"].permutation(len(manifest.items)))
        item = manifest.items[out["order"].pop()]
        ok, result = win.timed(
            tracer, 1,
            lambda: metrics.evaluate_checkpoint(ckpt, manifest, [item], "heatmap").items[0],
            item=item.item_id,
        )
        answer = result if ok else f"{type(result).__name__}: {result}"
        out["sequence"].append((item.item_id, ok))
        if out["answers"].setdefault(item.item_id, answer) != answer:
            out["mismatched"].append(item.item_id)
        return True

    def check(self, state, win: Window) -> Check:
        answers, mismatched = win.outputs["answers"], win.outputs["mismatched"]
        records = [a for a in answers.values() if isinstance(a, dict)]
        gates, quality = {}, {}
        bad = [
            r["id"] for r in records
            if any(r[k] is None or not math.isfinite(r[k]) for k in ("kld", "sim", "nss"))
        ]
        gates["query.metrics_finite"] = (
            bool(records) and not bad, f"{len(records)} items answered, non-finite: {bad}"
        )
        gates["query.repeat_identical"] = (not mismatched, f"differing: {sorted(set(mismatched))}")
        # means over successful queries, so an item counts as often as it ran
        answered = [answers[i] for i, ok in win.outputs["sequence"] if ok]
        for key, unit in (("kld", "nats"), ("sim", "1"), ("nss", "1")):
            vals = [r[key] for r in answered if r[key] is not None]
            quality[f"query_{key}"] = (float(np.mean(vals)) if vals else None, unit)
        quality["distinct_items"] = (len(answers), "count")
        return Check(gates, quality, {"keypoint_fixations.edge_rounding": self._edge_probe(state)})

    @staticmethod
    def _edge_probe(state) -> dict:
        """Query one item with a keypoint in the last half of the last pixel
        cell, which the timed queries never draw (``worlds.draw_keypoints``)."""
        ckpt, manifest = state["ckpt"], state["manifest"]
        probe = edge_keypoint_probe(manifest.items[0], state["image_size"])
        try:
            metrics.evaluate_checkpoint(ckpt, manifest, [probe], "heatmap")
        except Exception as exc:  # boundary: the defect shows as an exception
            message = str(exc).splitlines()[0] if str(exc) else ""
            return {"present": True, "detail": f"{type(exc).__name__}: {message}"}
        return {"present": False, "detail": "answered"}

    def fingerprint(self, win: Window) -> str:
        return _digest(json.dumps(win.outputs["answers"], sort_keys=True))

    def probe(self, state, win: Window):
        ckpt, manifest = state["ckpt"], state["manifest"]
        items = [data.load_item(manifest, it) for it in manifest.items[:2]]
        return [(ckpt.params, ckpt.enc, ckpt.text_table(), items)]

    def named_metrics(self, summary, check: Check) -> dict:
        return {
            "query_ms_p50": (summary["op_ms_p50"], "ms"),
            "query_ms_p90": (summary["op_ms_p90"], "ms"),
            "query_kld": check.quality.get("query_kld", (None, "nats")),
        }


WORKLOADS = {w.name: w for w in (TrainReadme(), EvalDense(), QueryHeatmap())}
