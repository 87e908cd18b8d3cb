import numpy as np
import pytest

from clinqc import context
from clinqc.errors import (SingleClassTraining, UnlabelledState, ValidationError)
from clinqc.series import ADHERENCE, VIOLATION, AdherenceLabels, StateSequence


def seq(indicators, posteriors=None):
    return StateSequence(indicators=np.asarray(indicators, dtype=int),
                         posteriors=posteriors)


def labels(values):
    return AdherenceLabels(rate=1.0, labels=np.asarray(values, dtype=int))


class TestModeBehaviourMap:
    def test_majority_vote(self):
        states = seq([0, 0, 0, 1, 1, 1])
        names = ["walk", "walk", "stand", "stand", "stand", "walk"]
        assert context.mode_behaviour_map(states, names) == {0: "walk", 1: "stand"}

    def test_tie_breaks_lexicographic(self):
        states = seq([0, 0])
        assert context.mode_behaviour_map(states, ["b", "a"]) == {0: "a"}

    def test_missing_labels_ignored(self):
        states = seq([0, 0, 0])
        assert context.mode_behaviour_map(states, [None, "sit", None]) == {0: "sit"}

    def test_fully_unlabelled_state(self):
        with pytest.raises(UnlabelledState):
            context.mode_behaviour_map(seq([0, 1]), ["walk", None])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            context.mode_behaviour_map(seq([0]), ["a", "b"])


class TestRescaleToCounts:
    def test_basic_rounding(self):
        out = context.rescale_to_counts(np.array([0.25, 0.75]), scale=100)
        assert out.tolist() == [25, 75]

    def test_documented_example(self):
        out = context.rescale_to_counts(np.array([0.004, 0.996]), scale=100)
        assert out.tolist() == [0, 100]

    def test_all_zero_row_goes_to_argmax(self):
        out = context.rescale_to_counts(np.array([0.002, 0.004, 0.001]), scale=100)
        assert out.tolist() == [0, 100, 0]

    def test_matrix_input(self):
        p = np.array([[0.5, 0.5], [0.004, 0.996]])
        out = context.rescale_to_counts(p, scale=100)
        assert out.tolist() == [[50, 50], [0, 100]]

    def test_invalid_scale(self):
        with pytest.raises(ValidationError):
            context.rescale_to_counts(np.array([1.0]), scale=0)


class TestNbTrain:
    def test_stated_formula_two_attributes(self):
        counts = np.array([[8, 2], [1, 9]], dtype=float)
        model = context.nb_train(counts, labels([ADHERENCE, VIOLATION]), smoothing=1.0)
        assert model.attribute_probs[0, 0] == pytest.approx(9 / 12)
        assert model.attribute_probs[0, 1] == pytest.approx(3 / 12)
        assert model.attribute_probs[1, 0] == pytest.approx(2 / 12)
        assert model.attribute_probs[1, 1] == pytest.approx(10 / 12)

    def test_single_attribute_zero_smoothing_degenerate(self):
        counts = np.array([[9.0], [1.0]])
        model = context.nb_train(counts, labels([ADHERENCE, VIOLATION]), smoothing=0.0)
        assert np.allclose(model.attribute_probs, 1.0)

    def test_rows_are_simplexes(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 50, size=(30, 6)).astype(float)
        u = labels(np.r_[np.full(15, ADHERENCE), np.full(15, VIOLATION)])
        model = context.nb_train(counts, u, smoothing=0.5)
        assert np.allclose(model.attribute_probs.sum(axis=1), 1.0)
        assert np.all(model.attribute_probs > 0)

    def test_default_priors_are_empirical(self):
        counts = np.ones((4, 2))
        model = context.nb_train(counts, labels([1, 1, 1, 2]))
        assert np.allclose(model.priors, [0.75, 0.25])

    def test_single_class_raises(self):
        with pytest.raises(SingleClassTraining):
            context.nb_train(np.ones((2, 2)), labels([1, 1]))


class TestNbPredict:
    def make_separable(self):
        # attribute 0 dominant under adherence, attribute 1 under violation
        counts = np.array([[90, 10], [85, 15], [10, 90], [20, 80]], dtype=float)
        u = labels([1, 1, 2, 2])
        return context.nb_train(counts, u), counts, u

    def test_train_accuracy_on_separable(self):
        model, counts, u = self.make_separable()
        pred, conf = context.nb_predict(model, counts)
        assert np.array_equal(pred, u.labels)
        assert np.allclose(conf.sum(axis=1), 1.0)

    def test_unseen_state_forces_violation(self):
        counts = np.array([[90, 10, 0], [10, 90, 0]], dtype=float)
        model = context.nb_train(counts, labels([1, 2]))
        assert not model.seen[2]
        pred, conf = context.nb_predict(model, np.array([[95, 0, 5]]))
        assert pred[0] == VIOLATION
        assert conf[0, 1] == 1.0

    def test_tie_goes_to_adherence(self):
        model = context.NaiveBayesModel(
            attribute_probs=np.array([[0.5, 0.5], [0.5, 0.5]]),
            priors=np.array([0.5, 0.5]), seen=np.array([True, True]))
        pred, _ = context.nb_predict(model, np.array([[10, 10]]))
        assert pred[0] == ADHERENCE

    def test_equal_likelihood_follows_prior(self):
        model = context.NaiveBayesModel(
            attribute_probs=np.array([[0.5, 0.5], [0.5, 0.5]]),
            priors=np.array([0.3, 0.7]), seen=np.array([True, True]))
        pred, _ = context.nb_predict(model, np.array([[10, 10]]))
        assert pred[0] == VIOLATION

    def test_positive_scaling_invariance_with_equal_priors(self):
        counts = np.array([[60, 40], [30, 70]], dtype=float)
        model = context.nb_train(counts, labels([1, 2]))
        x = np.array([[55.0, 45.0]])
        pred1, _ = context.nb_predict(model, x)
        pred3, _ = context.nb_predict(model, 3 * x)
        assert np.array_equal(pred1, pred3)

    def test_width_mismatch(self):
        model, _, _ = self.make_separable()
        with pytest.raises(ValidationError):
            context.nb_predict(model, np.array([[1.0, 2.0, 3.0]]))


class TestCountEncodings:
    def test_posterior_counts(self):
        post = np.array([[0.25, 0.75], [0.996, 0.004]])
        states = seq([1, 0], posteriors=post)
        out = context.posterior_counts(states, scale=100)
        assert out.tolist() == [[25, 75], [100, 0]]

    def test_posterior_counts_requires_posteriors(self):
        with pytest.raises(ValidationError):
            context.posterior_counts(seq([0, 1]))
