"""Quantitative assessment: TP/TN/BA metrics, k-fold cross validation of the
segment-then-classify stage, and the shuffled-indicator randomized baseline.

The TP and TN rates follow the printed form: both are normalized by
predicted-class counts (a precision-style quantity). The conventional
recall-style normalization by true-class counts is available via
``mode="recall"``.

Cross validation returns its report as the plain dict the CLI's
``evaluate`` writes under ``"metrics"``: the per-fold rates, and their mean
and (population) standard deviation, each None when any fold's rate is
undefined.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError
from .series import ADHERENCE


@dataclass
class FoldMetrics:
    """Metrics for one evaluation: any rate may be None when undefined."""

    tp: float | None
    tn: float | None
    ba: float | None


def tp_tn_ba(predicted: np.ndarray, truth: np.ndarray,
             mode: str = "printed") -> FoldMetrics:
    """TP, TN and balanced accuracy for one prediction run; adherence is
    the positive class.

    ``mode="printed"`` normalizes by predicted-class counts; ``"recall"``
    by true-class counts. Undefined rates (empty denominator) are reported
    as None, never coerced to 0 or 1.
    """
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValidationError("predicted and truth must have equal length")
    if mode not in ("printed", "recall"):
        raise ValidationError("mode must be 'printed' or 'recall'")
    pred_pos = predicted == ADHERENCE
    true_pos = truth == ADHERENCE
    if mode == "printed":
        tp_den = int(pred_pos.sum())
        tn_den = int((~pred_pos).sum())
    else:
        tp_den = int(true_pos.sum())
        tn_den = int((~true_pos).sum())
    tp = float((pred_pos & true_pos).sum() / tp_den) if tp_den else None
    tn = float((~pred_pos & ~true_pos).sum() / tn_den) if tn_den else None
    ba = 0.5 * (tp + tn) if (tp is not None and tn is not None) else None
    return FoldMetrics(tp=tp, tn=tn, ba=ba)


TrainFn = Callable[[np.ndarray, np.ndarray], object]
PredictFn = Callable[[object, np.ndarray], np.ndarray]


def kfold_cv(inputs: np.ndarray, labels: np.ndarray, k: int,
             train: TrainFn, predict: PredictFn,
             mode: str = "printed") -> dict:
    """Cross-validate a train/predict pair; returns the report described in
    the module docstring.

    The k folds are contiguous time blocks of 0..n-1 (``np.array_split``),
    preventing temporal leakage between train and test in autocorrelated
    series.
    """
    inputs = np.asarray(inputs)
    labels = np.asarray(labels)
    n = len(inputs)
    if labels.shape != (n,):
        raise ValidationError("inputs and labels must have equal length")
    if k < 2:
        raise ValidationError("need at least 2 folds")
    if n < k:
        raise ValidationError("fewer points than folds")
    folds = []
    for held_out in np.array_split(np.arange(n), k):
        train_mask = np.ones(n, dtype=bool)
        train_mask[held_out] = False
        train_labels = labels[train_mask]
        if len(set(train_labels)) < 2:
            raise ValidationError("a training split lost one of the classes")
        model = train(inputs[train_mask], train_labels)
        predictions = predict(model, inputs[held_out])
        folds.append(tp_tn_ba(predictions, labels[held_out], mode=mode))
    rates = {rate: [getattr(f, rate) for f in folds] for rate in ("tp", "tn", "ba")}
    return {
        "strategy": "blocks",
        "folds": [asdict(f) for f in folds],
        "mean": {r: None if None in v else float(np.mean(v)) for r, v in rates.items()},
        "std": {r: None if None in v else float(np.std(v)) for r, v in rates.items()},
    }


def shuffled_baseline(inputs: np.ndarray, labels: np.ndarray, k: int,
                      train: TrainFn, predict: PredictFn, seed: int = 0,
                      mode: str = "printed") -> dict:
    """Randomized control: permute the inputs, keep the labels fixed.

    Destroying the indicator/label association should drive BA to about
    0.5 on balanced data.
    """
    inputs = np.asarray(inputs)
    rng = np.random.default_rng(seed)
    permuted = inputs[rng.permutation(len(inputs))]
    return kfold_cv(permuted, labels, k, train, predict, mode=mode)
