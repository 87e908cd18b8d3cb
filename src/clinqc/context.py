"""Mapping unsupervised segmentation states to clinical meaning.

For controlled tests each occupied state is named by the most frequent
behaviour label observed while the state was active. For field tests a
multinomial naive Bayes classifier maps per-time state-count vectors to
adherence/violation; an explicit unseen-state pseudo-attribute makes the
"never seen in training means violation" rule a property of the model.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import SingleClassTraining, UnlabelledState, ValidationError
from .series import ADHERENCE, VIOLATION, AdherenceLabels, StateSequence

CLASSES = (ADHERENCE, VIOLATION)

#: Per-class log-probability of the unseen-state pseudo-attribute, in
#: ``CLASSES`` order: never under adherence, always under violation.
UNSEEN_LOGPROB = np.array([-np.inf, 0.0])


def mode_behaviour_map(states: StateSequence, behaviours: list[str]) -> dict[int, str]:
    """Name each occupied state by its most frequent behaviour label.

    Ties break lexicographically so the mapping is deterministic.
    """
    if len(states) != len(behaviours):
        raise ValidationError("states and behaviour labels must have equal length")
    mapping: dict[int, str] = {}
    z = states.indicators
    for k in np.unique(z):
        labels = [behaviours[t] for t in np.flatnonzero(z == k)
                  if behaviours[t] is not None]
        if not labels:
            raise UnlabelledState(f"state {k} has no labelled points")
        counts = Counter(labels)
        top = max(counts.values())
        mapping[int(k)] = min(lbl for lbl, c in counts.items() if c == top)
    return mapping


def rescale_to_counts(probabilities: np.ndarray, scale: int = 100) -> np.ndarray:
    """Turn a posterior probability vector into integer frequencies.

    Rounds scale * p; if everything rounds to zero the full scale goes to
    the argmax component.
    """
    p = np.asarray(probabilities, dtype=float)
    if scale < 1:
        raise ValidationError("scale must be >= 1")
    if p.ndim == 1:
        p = p[None, :]
        squeeze = True
    else:
        squeeze = False
    counts = np.rint(scale * p).astype(int)
    dead = counts.sum(axis=1) == 0
    if np.any(dead):
        counts[dead, np.argmax(p[dead], axis=1)] = scale
    return counts[0] if squeeze else counts


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
        if np.any(np.abs(self.attribute_probs.sum(axis=1) - 1.0) > 1e-9):
            raise ValidationError("attribute rows must sum to 1")
        if abs(self.priors.sum() - 1.0) > 1e-9:
            raise ValidationError("priors must sum to 1")

    @property
    def n_attributes(self) -> int:
        return self.attribute_probs.shape[1]


def nb_train(counts: np.ndarray, labels: AdherenceLabels,
             smoothing: float = 1.0) -> NaiveBayesModel:
    """Estimate per-class attribute probabilities from count vectors.

    pi_{k,c} = (smoothing + class counts for k) / (K * smoothing + class
    total); priors are the empirical class frequencies.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2 or len(counts) != len(labels):
        raise ValidationError("counts must be (T, K) matching labels")
    u = labels.labels
    present = set(np.unique(u))
    if present != {ADHERENCE, VIOLATION}:
        raise SingleClassTraining("training needs both classes present")
    K = counts.shape[1]
    probs = np.empty((2, K))
    for row, cls in enumerate(CLASSES):
        class_counts = counts[u == cls].sum(axis=0)
        probs[row] = (smoothing + class_counts) / (K * smoothing + class_counts.sum())
    priors = np.array([(u == c).mean() for c in CLASSES])
    seen = counts.sum(axis=0) > 0
    return NaiveBayesModel(attribute_probs=probs, priors=priors, seen=seen,
                           smoothing=smoothing)


def nb_scores(model: NaiveBayesModel, counts: np.ndarray) -> np.ndarray:
    """Per-class log-scores log P(c) + sum_k p_k log pi_{k,c}, shape (T, 2).

    Mass on unseen attributes contributes through the pseudo-attribute.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=float))
    if counts.shape[1] != model.n_attributes:
        raise ValidationError("count width does not match the trained model")
    with np.errstate(divide="ignore"):
        log_probs = np.log(model.attribute_probs)
        log_priors = np.log(model.priors)
    seen = model.seen
    scores = log_priors[None, :] + counts[:, seen] @ log_probs[:, seen].T
    unseen_mass = counts[:, ~seen].sum(axis=1)
    with np.errstate(invalid="ignore"):
        penalty = np.where(unseen_mass[:, None] > 0,
                           unseen_mass[:, None] * UNSEEN_LOGPROB[None, :],
                           0.0)
    return scores + penalty


def nb_predict(model: NaiveBayesModel, counts: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Classify count vectors; returns labels and per-class probabilities.

    Ties break toward adherence (the lower class code). The probabilities
    are the normalized exponentiated log-scores.
    """
    counts = np.atleast_2d(np.asarray(counts, dtype=float))
    scores = nb_scores(model, counts)
    pred = np.where(scores[:, 0] >= scores[:, 1], ADHERENCE, VIOLATION)
    shifted = scores - np.nanmax(np.where(np.isfinite(scores), scores, -np.inf),
                                 axis=1, keepdims=True)
    conf = np.exp(shifted)
    conf[~np.isfinite(conf)] = 0.0
    totals = conf.sum(axis=1, keepdims=True)
    totals[totals == 0] = 1.0
    return pred, conf / totals


def posterior_counts(states: StateSequence, scale: int = 100) -> np.ndarray:
    """Rescaled posterior state probabilities as integer frequencies."""
    if states.posteriors is None:
        raise ValidationError("state sequence carries no posteriors")
    return rescale_to_counts(states.posteriors, scale)
