"""One-shot affordance segmentation at desk scale.

Text prompt learning, multi-layer feature fusion, and a CLS-gated
cross-attention decoder, trained one-shot with BCE on deterministic
synthetic features (or ingested precomputed ones), with saliency and IoU
evaluation. Everything is numpy + hand-derived gradients; no pretrained
models are involved.
"""

from .data import AffordanceTarget, DatasetManifest, densify
from .decoder import DecoderParams, Prediction, cls_mask
from .features import FeatureStack, load_features, save_features, synth_text_tokens
from .fusion import Embedder, FusionParams
from .metrics import MetricsReport, evaluate, hiou, kld, miou, nss, sim
from .prompt import StubTextEncoder
from .synth import SynthWorldSpec, make_world, synth_target, synth_vision_encode
from .training import (
    Checkpoint,
    ModelParams,
    TrainConfig,
    backward,
    bce_loss,
    forward,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train,
)

__version__ = "0.1.0"
