"""Mapping unsupervised segmentation states to clinical meaning.

Posterior state probabilities become per-time integer state counts, and a
multinomial naive Bayes classifier maps those count vectors to
adherence/violation; an explicit unseen-state pseudo-attribute makes the
"never seen in training means violation" rule a property of the model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .series import ADHERENCE, VIOLATION, check_simplex

CLASSES = (ADHERENCE, VIOLATION)

#: Per-class log-probability of the unseen-state pseudo-attribute, in
#: ``CLASSES`` order: never under adherence, always under violation.
UNSEEN_LOGPROB = np.array([-np.inf, 0.0])


def rescale_to_counts(probabilities: np.ndarray, scale: int = 100) -> np.ndarray:
    """Turn (T, K) posterior probabilities into integer frequencies.

    Rounds scale * p; a row that rounds to all zeros puts the full scale on
    its argmax component.
    """
    p = np.asarray(probabilities, dtype=float)
    if scale < 1:
        raise ValidationError("scale must be >= 1")
    counts = np.rint(scale * p).astype(int)
    dead = counts.sum(axis=1) == 0
    if np.any(dead):
        counts[dead, np.argmax(p[dead], axis=1)] = scale
    return counts


@dataclass
class NaiveBayesModel:
    """Multinomial naive Bayes over segmentation-state count vectors.

    ``attribute_probs`` rows (one per class) are simplexes over the K+ seen
    attributes following the add-smoothing estimate. Mass placed on an
    attribute never seen during training routes through a pseudo-attribute
    whose log-probability is ``UNSEEN_LOGPROB``: -inf under adherence and 0
    under violation, so unseen states deterministically classify as
    violation.
    """

    attribute_probs: np.ndarray        # (2, K) rows on the simplex
    priors: np.ndarray                 # (2,), order (adherence, violation)
    seen: np.ndarray                   # (K,) bool, attribute observed in training
    smoothing: float = 1.0

    def __post_init__(self):
        self.attribute_probs = np.asarray(self.attribute_probs, dtype=float)
        self.priors = np.asarray(self.priors, dtype=float)
        self.seen = np.asarray(self.seen, dtype=bool)
        if (self.seen.ndim != 1 or self.priors.shape != (2,)
                or self.attribute_probs.shape != (2, len(self.seen))):
            raise ValidationError("attribute_probs must be (2, K), priors (2,) and seen (K,)")
        check_simplex(self.attribute_probs, "attribute rows must sum to 1")
        check_simplex(self.priors, "priors must sum to 1")


def nb_train(counts: np.ndarray, labels: np.ndarray,
             smoothing: float = 1.0) -> NaiveBayesModel:
    """Estimate per-class attribute probabilities from count vectors.

    pi_{k,c} = (smoothing + class counts for k) / (K * smoothing + class
    total); priors are the empirical class frequencies. ``smoothing`` must
    be finite and positive, and small enough that each denominator is finite.
    """
    if not (np.isfinite(smoothing) and smoothing > 0):
        raise ValidationError(f"smoothing must be finite and positive, got {smoothing!r}")
    counts = np.asarray(counts, dtype=float)
    u = np.asarray(labels)
    if counts.ndim != 2 or u.shape != counts.shape[:1]:
        raise ValidationError("counts must be (T, K) matching labels")
    if set(np.unique(u)) != {ADHERENCE, VIOLATION}:
        raise ValidationError("training needs both classes present")
    class_counts = np.array([counts[u == cls].sum(axis=0) for cls in CLASSES])
    totals = counts.shape[1] * smoothing + class_counts.sum(axis=1, keepdims=True)
    if not np.isfinite(totals).all():
        raise ValidationError(f"smoothing {smoothing!r} overflows with these counts: "
                              "K * smoothing + a class's count total is not finite")
    probs = (smoothing + class_counts) / totals
    priors = np.array([(u == c).mean() for c in CLASSES])
    seen = counts.sum(axis=0) > 0
    return NaiveBayesModel(attribute_probs=probs, priors=priors, seen=seen,
                           smoothing=smoothing)


def nb_predict(model: NaiveBayesModel, counts: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Classify count vectors; returns labels and per-class probabilities.

    Each class scores log P(c) + sum_k p_k log pi_{k,c}, mass on unseen
    attributes contributing through the pseudo-attribute. Ties break toward
    adherence (the lower class code). The probabilities are the normalized
    exponentiated scores.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=float))
    seen = model.seen
    if counts.shape[1] != len(seen):
        raise ValidationError("count width does not match the trained model")
    with np.errstate(divide="ignore"):
        log_probs = np.log(model.attribute_probs)
        log_priors = np.log(model.priors)
    scores = log_priors[None, :] + counts[:, seen] @ log_probs[:, seen].T
    unseen_mass = counts[:, ~seen].sum(axis=1)
    with np.errstate(invalid="ignore"):
        scores += np.where(unseen_mass[:, None] > 0,
                           unseen_mass[:, None] * UNSEEN_LOGPROB[None, :], 0.0)
    pred = np.where(scores[:, 0] >= scores[:, 1], ADHERENCE, VIOLATION)
    shifted = scores - np.nanmax(np.where(np.isfinite(scores), scores, -np.inf),
                                 axis=1, keepdims=True)
    conf = np.exp(shifted)
    conf[~np.isfinite(conf)] = 0.0
    totals = conf.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return pred, conf / totals
