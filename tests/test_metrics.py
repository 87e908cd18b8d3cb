import numpy as np
import pytest

from clinqc import metrics
from clinqc.errors import ValidationError


def labels(values):
    return np.asarray(values, dtype=int)


class TestTpTnBa:
    def test_documented_fixture(self):
        out = metrics.tp_tn_ba(np.array([1, 1, 2, 2]), np.array([1, 2, 2, 2]))
        assert out.tp == pytest.approx(0.5)
        assert out.tn == pytest.approx(1.0)
        assert out.ba == pytest.approx(0.75)

    def test_perfect_prediction(self):
        y = np.array([1, 2, 1, 2, 2])
        out = metrics.tp_tn_ba(y, y)
        assert (out.tp, out.tn, out.ba) == (1.0, 1.0, 1.0)

    def test_recall_mode_fixture(self):
        # same fixture, denominators switch to the true-class counts
        out = metrics.tp_tn_ba(np.array([1, 1, 2, 2]), np.array([1, 2, 2, 2]),
                               mode="recall")
        assert out.tp == pytest.approx(1.0)       # 1 of 1 true adherence found
        assert out.tn == pytest.approx(2 / 3)
        assert out.ba == pytest.approx(5 / 6)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        pred = rng.choice([1, 2], size=40)
        truth = rng.choice([1, 2], size=40)
        perm = rng.permutation(40)
        a = metrics.tp_tn_ba(pred, truth)
        b = metrics.tp_tn_ba(pred[perm], truth[perm])
        assert (a.tp, a.tn, a.ba) == (b.tp, b.tn, b.ba)

    def test_empty_denominator_is_none(self):
        # nothing predicted violation: printed TN undefined, never 0
        out = metrics.tp_tn_ba(np.array([1, 1, 1]), np.array([1, 2, 1]))
        assert out.tp == pytest.approx(2 / 3)
        assert out.tn is None
        assert out.ba is None

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            metrics.tp_tn_ba(np.array([1]), np.array([1, 2]))

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            metrics.tp_tn_ba(np.array([1]), np.array([1]), mode="accuracy")


class TestReport:
    """The dict ``kfold_cv`` returns, from a scripted ``predict``.

    Labels ``[1, 1, 1, 2 | 1, 2, 1, 2]`` in two block folds; predicting
    ``[1, 1, 2, 2]`` on each gives TP 1.0, TN 0.5 on the first fold and
    TP 0.5, TN 0.5 on the second.
    """

    truth = labels([1, 1, 1, 2, 1, 2, 1, 2])

    def report(self, *predictions):
        scripted = iter(labels(p) for p in predictions)
        return metrics.kfold_cv(np.arange(8), self.truth, 2,
                                lambda inputs, u: None,
                                lambda model, inputs: next(scripted))

    def test_mean_std(self):
        report = self.report([1, 1, 2, 2], [1, 1, 2, 2])
        assert report["mean"]["ba"] == pytest.approx(0.625)
        assert report["std"]["ba"] == pytest.approx(0.125)

    def test_undefined_fold_makes_aggregate_none(self):
        # nothing predicted violation on the first fold: its TN is undefined
        report = self.report([1, 1, 1, 1], [1, 1, 2, 2])
        assert report["folds"][0] == {"tp": 0.75, "tn": None, "ba": None}
        for aggregate in ("mean", "std"):
            assert report[aggregate]["tn"] is None
            assert report[aggregate]["ba"] is None
        assert report["mean"]["tp"] == pytest.approx(0.625)
        assert report["std"]["tp"] == pytest.approx(0.125)

    def test_report_layout(self):
        report = self.report([1, 1, 2, 2], [1, 1, 2, 2])
        assert report["strategy"] == "blocks"
        assert report["folds"] == [{"tp": 1.0, "tn": 0.5, "ba": 0.75},
                                   {"tp": 0.5, "tn": 0.5, "ba": 0.5}]
        assert set(report) == {"strategy", "folds", "mean", "std"}


class TestFoldPlan:
    """The folds ``kfold_cv`` holds out, seen by a recording ``predict``."""

    @staticmethod
    def held_out(n, k):
        seen = []

        def predict(model, inputs):
            seen.append(inputs)
            return np.ones(len(inputs), dtype=int)

        metrics.kfold_cv(np.arange(n), labels(np.arange(n) % 2 + 1), k,
                         lambda inputs, u: None, predict)
        return seen

    def test_block_fold_sizes(self):
        folds = self.held_out(1000, 10)
        assert [len(f) for f in folds] == [100] * 10
        assert np.array_equal(np.concatenate(folds), np.arange(1000))

    def test_blocks_are_contiguous(self):
        for f in self.held_out(50, 5):
            assert np.array_equal(f, np.arange(f[0], f[-1] + 1))

    def test_too_few_points(self):
        with pytest.raises(ValidationError, match="fewer points than folds"):
            metrics.kfold_cv(np.arange(3), labels([1, 2, 1]), 5,
                             lambda inputs, u: None, lambda model, inputs: inputs)


def oracle_train(inputs, labs):
    return None


def oracle_predict(model, inputs):
    # inputs carry the labels themselves
    return inputs.astype(int)


class TestKfoldCv:
    def test_identity_pipeline_perfect(self):
        u = labels(np.r_[np.ones(50), np.full(50, 2)][np.random.default_rng(0)
                                                      .permutation(100)])
        report = metrics.kfold_cv(u.astype(float), u, 10,
                                  oracle_train, oracle_predict)
        assert report["mean"]["ba"] == 1.0
        assert report["std"]["ba"] == 0.0

    def test_lost_class_raises(self):
        u = labels(np.r_[np.ones(90), np.full(10, 2)])
        # block folds: the last fold holds all the violation points
        with pytest.raises(ValidationError, match="a training split lost one of the classes"):
            metrics.kfold_cv(u.astype(float), u, 10,
                             oracle_train, oracle_predict)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        u = labels(rng.choice([1, 2], size=60))
        x = u + rng.normal(0, 0.1, size=60)

        def train(inputs, labs):
            return 1.5

        def predict(threshold, inputs):
            return np.where(inputs < threshold, 1, 2)

        a = metrics.kfold_cv(x, u, 5, train, predict)
        b = metrics.kfold_cv(x, u, 5, train, predict)
        assert a == b

    def test_degenerate_single_prediction_recall_mode(self):
        # predictor collapses to one class on balanced truth: recall-style
        # BA is exactly 0.5 while printed-style TN is undefined
        u = labels(np.r_[np.ones(5), np.full(5, 2), np.ones(5), np.full(5, 2)])

        def predict_ones(model, inputs):
            return np.ones(len(inputs), dtype=int)

        report = metrics.kfold_cv(u.astype(float), u, 2,
                                  oracle_train, predict_ones, mode="recall")
        assert report["mean"]["ba"] == pytest.approx(0.5)
        printed = metrics.kfold_cv(u.astype(float), u, 2,
                                   oracle_train, predict_ones, mode="printed")
        assert printed["folds"][0]["tn"] is None


class TestShuffledBaseline:
    def test_breaks_association(self):
        rng = np.random.default_rng(5)
        u = labels(rng.permutation(np.r_[np.ones(500), np.full(500, 2)]))
        x = u.astype(float)  # perfectly informative before shuffling

        def train(inputs, labs):
            return 1.5

        def predict(threshold, inputs):
            return np.where(inputs < threshold, 1, 2)

        honest = metrics.kfold_cv(x, u, 10, train, predict)
        assert honest["mean"]["ba"] == 1.0
        baseline = metrics.shuffled_baseline(x, u, 10, train, predict, seed=6)
        assert 0.4 < baseline["mean"]["ba"] < 0.6

    def test_deterministic(self):
        u = labels(np.r_[np.ones(10), np.full(10, 2), np.ones(10), np.full(10, 2)])
        x = u.astype(float)
        a = metrics.shuffled_baseline(x, u, 4, oracle_train, oracle_predict,
                                      seed=7, mode="recall")
        b = metrics.shuffled_baseline(x, u, 4, oracle_train, oracle_predict,
                                      seed=7, mode="recall")
        assert a == b
