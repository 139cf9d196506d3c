"""The README walkthrough as one function, and the script that records its outputs.

:func:`run` runs the CLI in a fresh directory: ``gen-synth --seed 7 --objects 8
--novel 2 --items 3``; ``train`` on the README config at 300 steps, plain and
with each ``--ablate``; ``eval`` of every checkpoint in both modes; and
``check-grad --seed 0``. It returns the sha256 of every file written, the
numbers of each run, and the numpy version and BLAS that produced them.

``tests/test_walkthrough.py`` compares a rerun with ``tests/golden/walkthrough.json``.
After a change that is meant to move outputs, regenerate that file with::

    PYTHONPATH=src python -m tests.walkthrough
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np

from affseg import gradcheck
from affseg.cli import ABLATIONS, main

GOLDEN = Path(__file__).parent / "golden" / "walkthrough.json"
CONFIG = {"lr": 0.01, "iterations": 300, "seed": 7,
          "p": 8, "j": 3, "t": 2, "C": 64, "C_t": 64, "log_every": 100}


def environment() -> dict:
    """The numpy version and the BLAS it was built with."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas}


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"affseg {' '.join(map(str, argv))} exited {code}")


def run(workdir) -> dict:
    """Run the walkthrough in *workdir* -> {"environment", "sha256", "numbers"}."""
    work = Path(workdir)
    world = work / "world"
    manifest = world / "manifest.json"
    _cli("gen-synth", "--seed", 7, "--objects", 8, "--novel", 2, "--items", 3, "--out", world)
    cfg = work / "cfg.json"
    cfg.write_text(json.dumps(CONFIG) + "\n")
    numbers = {}
    for ablate in ("plain", *ABLATIONS):
        out = work / ablate
        out.mkdir()
        flags = () if ablate == "plain" else ("--ablate", ablate)
        _cli("train", "--config", cfg, "--manifest", manifest, *flags,
             "--out", out / "model.ooal", "--loss-log", out / "loss.csv")
        for mode, report in (("dense", "report.json"), ("heatmap", "heat.json")):
            _cli("eval", "--ckpt", out / "model.ooal", "--manifest", manifest,
                 "--mode", mode, "--report", out / report)
        dense = json.loads((out / "report.json").read_text())
        heat = json.loads((out / "heat.json").read_text())
        last = (out / "loss.csv").read_text().splitlines()[-1]
        numbers[f"{ablate}.final_loss"] = float(last.split(",")[1])
        numbers[f"{ablate}.hiou"] = dense["hiou"]
        for doc, names in ((dense, ("miou",)), (heat, ("kld", "sim", "nss"))):
            for name in names:
                for split in ("seen", "unseen"):
                    numbers[f"{ablate}.{name}_{split}"] = doc[split]["aggregates"][name]
    errors = []
    real_check = gradcheck.run_check

    def recording_check(**kwargs):
        result = real_check(**kwargs)
        errors.append(result[0])
        return result

    with mock.patch.object(gradcheck, "run_check", recording_check):
        _cli("check-grad", "--seed", 0)
    numbers["check-grad.max_rel_error"] = max(errors)
    sha256 = {path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
              for path in sorted(work.rglob("*")) if path.is_file()}
    return {"environment": environment(), "sha256": sha256, "numbers": numbers}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        result = run(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
