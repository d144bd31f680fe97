"""Estimator-style front end for the scale-aware detector.

``SanDetector`` follows the familiar fit/predict conventions: constructor
arguments are plain hyperparameters stored verbatim, ``fit`` trains on a
dataset of (image, annotations) pairs, ``predict`` scores proposal boxes,
and ``get_params`` / ``set_params`` make it composable with tooling that
expects that protocol.  The parameters are derived from TrainingConfig: one
per field, named as on the command line (see `training.front_end_fields`),
plus the scheme preset and its overrides.  Fitted state lives in
trailing-underscore attributes.
"""

from __future__ import annotations

from pathlib import Path

from .analysis import ApResult, Detection
from .backbone import Image, RoI
from .data import Annotation
from .errors import ConfigError
from .training import (
    DetectionModel,
    TrainingConfig,
    config_from_front_end,
    detect,
    evaluate_detector,
    front_end_defaults,
    front_end_from_config,
    load_checkpoint,
    save_checkpoint,
    train,
)


class NotFittedError(ConfigError):
    """predict/score was called before fit (or loading a checkpoint)."""


class SanDetector:
    """Trainable multi-scale shape detector with scale-aware correction.

    Parameters are the TrainingConfig fields under their front-end names
    (``san``, ``init`` for ``san_mode``, ``init_mode``), with the same
    defaults; ``scheme`` may be a preset name ("toy", "voc", "coco")
    optionally overridden by ``ref_scale`` / ``boundaries``.
    """

    def __init__(self, **params):
        self.set_params(**(front_end_defaults() | params))

    # -- sklearn-style parameter plumbing ---------------------------------

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in front_end_defaults()}

    def set_params(self, **params) -> "SanDetector":
        valid = front_end_defaults()
        for k, v in params.items():
            if k not in valid:
                raise ConfigError(f"unknown parameter {k!r} for SanDetector")
            setattr(self, k, v)
        return self

    # -- training ----------------------------------------------------------

    def training_config(self) -> TrainingConfig:
        return config_from_front_end(self.get_params())

    def fit(self, dataset: list[tuple[Image, list[Annotation]]]) -> "SanDetector":
        result = train(dataset, self.training_config())
        self.model_ = result.model
        self.log_ = result.log_rows
        return self

    def _require_fitted(self) -> DetectionModel:
        model = getattr(self, "model_", None)
        if model is None:
            raise NotFittedError("this SanDetector is not fitted; call fit() or load()")
        return model

    # -- inference ---------------------------------------------------------

    def predict(self, img: Image, proposals: list[RoI], score_thresh: float = 0.05, nms_iou: float = 0.3) -> list[Detection]:
        """Detections for explicit proposal boxes on one image."""
        return detect(self._require_fitted(), img, proposals, score_thresh=score_thresh, nms_iou=nms_iou)

    def score(self, dataset: list[tuple[Image, list[Annotation]]], seed: int | None = None) -> float:
        """Mean average precision over a dataset with jittered proposals."""
        ap, _ = self.evaluate(dataset, seed=seed)
        return ap.mean_ap

    def evaluate(self, dataset, seed: int | None = None) -> tuple[ApResult, list[Detection]]:
        return evaluate_detector(self._require_fitted(), dataset, seed=self.seed if seed is None else seed)

    # -- persistence ---------------------------------------------------------

    def save(self, path: Path) -> None:
        save_checkpoint(Path(path), self._require_fitted())

    @classmethod
    def load(cls, path: Path) -> "SanDetector":
        """A fitted detector whose parameters are the loaded model's config."""
        model = load_checkpoint(Path(path))
        det = cls(**front_end_from_config(model.config))
        det.model_ = model
        det.log_ = []
        return det
