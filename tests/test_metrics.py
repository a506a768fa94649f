import numpy as np
import pytest

from controkit.corpus import AnnotationRecord
from controkit.errors import UsageError
from controkit.metrics import (
    _BLOCK_CELLS,
    METRIC_NAMES,
    PredictionSet,
    agreement_report,
    auc,
    bootstrap_ci,
    compare,
    evaluate_predictions,
    percentile_linear,
    prf,
    roc_points,
    spearman,
)

from oracles import (
    auc_pairs,
    auc_rank_sum,
    bootstrap_second,
    percentile_hand,
    prf_confusion,
    spearman_hand,
)


def pset(scores, hard, true, ids=None, name="m"):
    n = len(scores)
    return PredictionSet(
        doc_ids=ids or [f"d{i}" for i in range(n)],
        scores=np.asarray(scores, dtype=float),
        hard_labels=np.asarray(hard, dtype=int),
        true_labels=np.asarray(true, dtype=int),
        model_name=name,
    )


class TestPrf:
    def test_reported_f1_values(self):
        # integer confusion tables that give exactly P=0.627, R=0.840
        # and P=0.632, R=0.745
        for (tp, fp, fn, p_ref, r_ref, f_ref) in (
            (4389, 2611, 836, 0.627, 0.840, 0.718),
            (94168, 54832, 32232, 0.632, 0.745, 0.684),
        ):
            hard = [1] * (tp + fp) + [0] * fn
            true = [1] * tp + [0] * fp + [1] * fn
            result = prf(pset([0.5] * len(hard), hard, true))
            assert result.precision == pytest.approx(p_ref, abs=1e-9)
            assert result.recall == pytest.approx(r_ref, abs=1e-9)
            assert result.f1 == pytest.approx(f_ref, abs=5e-4)

    def test_perfect_predictions(self):
        result = prf(pset([0.9, 0.1], [1, 0], [1, 0]))
        assert (result.precision, result.recall, result.f1) == (1.0, 1.0, 1.0)

    def test_degenerate_conventions_flagged(self):
        r = prf(pset([0.1, 0.2], [0, 0], [1, 0]))
        assert r.precision == 0.0 and "no-predicted-positives" in r.flags
        r = prf(pset([0.9, 0.8], [1, 1], [0, 0]))
        assert r.recall == 0.0 and "no-actual-positives" in r.flags
        r = prf(pset([0.1], [0], [1]))
        assert r.f1 == 0.0 and "f1-undefined" in r.flags

    def test_matches_confusion_oracle_on_random_instances(self, rng):
        for _ in range(300):
            n = int(rng.integers(1, 60))
            hard = rng.integers(0, 2, size=n)
            true = rng.integers(0, 2, size=n)
            got = prf(pset(rng.random(n), hard, true))
            want = prf_confusion(hard.tolist(), true.tolist())
            assert (got.precision, got.recall, got.f1) == want


class TestAuc:
    def test_perfect_ranking(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_pair_enumeration_example(self):
        assert auc([0.9, 0.6, 0.4, 0.2], [1, 0, 1, 0]) == 0.75

    def test_all_ties(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UsageError, match="positive"):
            auc([0.5, 0.6], [0, 0])
        with pytest.raises(UsageError, match="negative"):
            auc([0.5, 0.6], [1, 1])

    def test_matches_pair_oracle_on_random_instances(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 50))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            scores = np.round(rng.random(n), 2)  # force some ties
            assert auc(scores, labels) == pytest.approx(
                auc_pairs(scores.tolist(), labels.tolist()), abs=1e-12)

    def test_invariant_under_monotone_transform(self, rng):
        scores = rng.random(40)
        labels = (rng.random(40) < 0.4).astype(int)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        base = auc(scores, labels)
        assert auc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc(2 * scores - 7, labels) == pytest.approx(base, abs=1e-12)

    def test_equals_trapezoidal_roc_area(self, rng):
        for _ in range(50):
            n = int(rng.integers(4, 40))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                continue
            scores = np.round(rng.random(n), 1)
            pts = roc_points(scores, labels)
            area = sum((x2 - x1) * (y1 + y2) / 2.0
                       for (x1, y1), (x2, y2) in zip(pts, pts[1:]))
            assert auc(scores, labels) == pytest.approx(area, abs=1e-12)


class TestSpearman:
    def test_monotone_is_one(self):
        assert spearman([1, 4, 9], [2, 3, 10]) == 1.0

    def test_reversed_is_minus_one(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_example(self):
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5, abs=1e-12)

    def test_zero_variance_flagged_nan(self):
        assert np.isnan(spearman([1, 1, 1], [1, 2, 3]))

    def test_needs_three_points(self):
        with pytest.raises(UsageError):
            spearman([1, 2], [2, 1])

    def test_matches_rank_oracle_with_ties(self, rng):
        for _ in range(300):
            n = int(rng.integers(3, 40))
            x = np.round(rng.random(n), 1)
            y = np.round(rng.random(n), 1)
            got = spearman(x, y)
            want = spearman_hand(x.tolist(), y.tolist())
            if np.isnan(want):
                assert np.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_invariant_under_monotone_transforms(self, rng):
        x = rng.random(25)
        y = rng.random(25)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 10 * y - 3) == pytest.approx(base, abs=1e-12)


class TestBootstrap:
    def test_constant_metric_zero_width(self):
        # every draw predicts all-positive on all-positive truth, so
        # precision is 1 on every resample
        preds = pset([0.9, 0.8, 0.7, 0.6], [1, 1, 1, 1], [1, 1, 1, 1])
        res = bootstrap_ci(preds, "precision", n_resamples=200, seed=5)
        assert res.lower == res.upper == 1.0

    def test_deterministic_given_seed(self, rng):
        n = 30
        preds = pset(rng.random(n), rng.integers(0, 2, n), rng.integers(0, 2, n))
        a = bootstrap_ci(preds, "f1", seed=11)
        b = bootstrap_ci(preds, "f1", seed=11)
        assert (a.lower, a.upper) == (b.lower, b.upper)
        c = bootstrap_ci(preds, "f1", seed=12)
        assert (a.lower, a.upper) != (c.lower, c.upper)

    def test_matches_independent_second_implementation(self, rng):
        # identical values, skips and intervals from the loop oracle, for
        # every metric and for paired differences: a tiny 5-item set, a tied
        # 12-item set, a tied 70-item set whose draws span two blocks, an F1
        # case whose draws span many, and a tied AUC and F1 case whose draws
        # span many, paired with a set of fewer distinct scores
        def oracle(metric, hard, true, scores):
            # pair enumeration is quadratic; the rank-sum form keeps n = 1,100 quick
            auc_oracle = auc_pairs if len(scores) < 100 else auc_rank_sum

            def value(idx):
                if metric != "auc":
                    return prf_confusion(hard[idx].tolist(), true[idx].tolist())[
                        METRIC_NAMES.index(metric)]
                if true[idx].min() == true[idx].max():
                    raise ValueError("single-class draw")
                return auc_oracle(scores[idx].tolist(), true[idx].tolist())
            return value

        def recorded(value, seen):
            def metric(idx):
                seen.append(value(idx))
                return seen[-1]
            return metric

        scores_12, scores_70 = np.round(rng.random(12), 1), np.round(rng.random(70), 1)
        cases = [  # scores, hard labels, true labels, metrics, also compare
            (np.array([0.9, 0.7, 0.45, 0.3, 0.1]), np.array([1, 1, 0, 1, 0]),
             np.array([1, 0, 1, 1, 0]), METRIC_NAMES, True),
            (scores_12, (scores_12 > 0.5).astype(int), rng.integers(0, 2, 12),
             METRIC_NAMES, True),
            (scores_70, (scores_70 > 0.5).astype(int), rng.integers(0, 2, 70),
             METRIC_NAMES, True),
            (rng.random(1100), rng.integers(0, 2, 1100), rng.integers(0, 2, 1100),
             ("f1",), False),
            (np.round(rng.random(1100), 2), rng.integers(0, 2, 1100), rng.integers(0, 2, 1100),
             ("auc", "f1"), True),
        ]
        assert 70 * 1000 > _BLOCK_CELLS > 70 * 500
        for seed, (scores, hard, true, metrics, paired) in enumerate(cases, start=77):
            n = len(scores)
            other_scores = np.round(rng.random(n), 1)
            other_hard = rng.integers(0, 2, n)
            a, b = pset(scores, hard, true), pset(other_scores, other_hard, true)
            for metric in metrics:
                value_a = oracle(metric, hard, true, scores)
                res = bootstrap_ci(a, metric, n_resamples=1000, seed=seed)
                seen = []
                lo, hi, skipped = bootstrap_second(recorded(value_a, seen), n, 1000, 0.95,
                                                   seed=seed)
                assert np.array_equal(res.values, seen)
                assert (res.lower, res.upper, res.n_skipped) == (lo, hi, skipped)
                if not paired:
                    continue
                value_b = oracle(metric, other_hard, true, other_scores)
                res = compare(a, b, metric, n_resamples=1000, seed=seed)
                seen = []
                lo, hi, skipped = bootstrap_second(
                    recorded(lambda idx: value_a(idx) - value_b(idx), seen), n, 1000, 0.95,
                    seed=seed)
                assert np.array_equal(res.differences, seen)
                assert (res.lower, res.upper, res.n_skipped) == (lo, hi, skipped)

    def test_draw_contract_one_matrix_equals_sequential_draws(self):
        # the blocked draw relies on this numpy property; an upgrade that
        # breaks it changes every interval and must fail here
        for n in (7, 500, 2001):
            sequential = np.random.default_rng(n)
            rows = [sequential.integers(0, n, size=n) for _ in range(40)]
            block = np.random.default_rng(n).integers(0, n, size=(40, n))
            assert np.array_equal(block, np.stack(rows))

    def test_unknown_metric_rejected_before_resampling(self):
        preds = pset([0.9, 0.2, 0.6], [1, 0, 1], [1, 0, 0])
        with pytest.raises(UsageError, match="unknown metric 'accuracy'; expected one of"):
            bootstrap_ci(preds, "accuracy", n_resamples=20)

    def test_undefined_resamples_skipped_and_counted(self):
        preds = pset([0.9, 0.1, 0.5], [1, 0, 1], [1, 0, 0])
        res = bootstrap_ci(preds, "auc", n_resamples=500, seed=3)
        assert res.n_skipped > 0
        assert res.n_skipped + len(res.values) == 500

    def test_all_resamples_undefined_raises(self):
        preds = pset([0.9, 0.8], [1, 1], [1, 1])
        with pytest.raises(UsageError, match="every"):
            bootstrap_ci(preds, "auc", n_resamples=50, seed=1)

    def test_width_shrinks_with_n(self, rng):
        # expected interval width is non-increasing in n (3-sigma style check
        # across seeds)
        def mean_width(n, seeds):
            widths = []
            for s in seeds:
                scores = rng.random(n)
                true = (rng.random(n) < 0.5).astype(int)
                if true.min() == true.max():
                    true[0] = 1 - true[0]
                preds = pset(scores, (scores > 0.5).astype(int), true)
                r = bootstrap_ci(preds, "auc", n_resamples=300, seed=s)
                widths.append(r.upper - r.lower)
            return float(np.mean(widths)), float(np.std(widths))

        small_mean, small_std = mean_width(12, range(12))
        big_mean, big_std = mean_width(120, range(12))
        sigma = (small_std + big_std) / np.sqrt(12)
        assert big_mean < small_mean + 3 * sigma
        assert big_mean < small_mean  # strongly expected at 10x n

    def test_percentile_formula_matches_hand(self, rng):
        for _ in range(100):
            vals = rng.random(int(rng.integers(2, 40)))
            q = float(rng.random() * 100)
            assert percentile_linear(vals, q) == pytest.approx(
                percentile_hand(vals, q), abs=1e-12)


class TestCompare:
    def test_same_model_never_significant(self, rng):
        n = 25
        preds = pset(rng.random(n), rng.integers(0, 2, n), rng.integers(0, 2, n))
        for seed in range(10):
            res = compare(preds, preds, "f1", n_resamples=300, seed=seed)
            assert not res.significant
            assert res.lower == res.upper == 0.0

    def test_clearly_better_model_is_significant(self, rng):
        n = 60
        true = rng.integers(0, 2, size=n)
        while true.min() == true.max():
            true = rng.integers(0, 2, size=n)
        perfect = pset(true.astype(float), true, true, name="good")
        noise_scores = rng.random(n)
        random_model = pset(noise_scores, (noise_scores > 0.5).astype(int), true, name="bad")
        res = compare(perfect, random_model, "f1", n_resamples=500, seed=2)
        assert res.significant
        assert res.lower > 0

    def test_swap_negates_interval(self, rng):
        n = 40
        true = rng.integers(0, 2, size=n)
        true[0], true[1] = 0, 1
        a = pset(rng.random(n), rng.integers(0, 2, n), true, name="a")
        b = pset(rng.random(n), rng.integers(0, 2, n), true, name="b")
        fwd = compare(a, b, "precision", n_resamples=400, seed=9)
        rev = compare(b, a, "precision", n_resamples=400, seed=9)
        # antisymmetry is exact in real arithmetic; the mirrored percentile
        # interpolation only differs by float rounding
        assert fwd.lower == pytest.approx(-rev.upper, abs=1e-12)
        assert fwd.upper == pytest.approx(-rev.lower, abs=1e-12)
        assert np.array_equal(fwd.differences, -rev.differences)
        assert fwd.significant == rev.significant

    def test_unknown_metric_rejected_before_resampling(self):
        preds = pset([0.9, 0.2, 0.6], [1, 0, 1], [1, 0, 0])
        with pytest.raises(UsageError, match="unknown metric 'accuracy'; expected one of"):
            compare(preds, preds, "accuracy", n_resamples=20)

    def test_misaligned_documents_rejected(self):
        a = pset([0.5, 0.6], [1, 1], [1, 0], ids=["x", "y"])
        b = pset([0.5, 0.6], [1, 1], [1, 0], ids=["x", "z"])
        with pytest.raises(UsageError, match="identical document set"):
            compare(a, b, "f1")


class TestAgreement:
    def _preds(self, n=10):
        rng = np.random.default_rng(0)
        scores = rng.random(n)
        true = rng.integers(0, 2, size=n)
        return pset(scores, (scores > 0.5).astype(int), true,
                    ids=[f"d{i}" for i in range(n)])

    def test_three_correlations_match_rank_oracle(self):
        preds = self._preds(10)
        rng = np.random.default_rng(4)
        annotations = [
            AnnotationRecord(f"d{i}", [float(v) for v in rng.integers(1, 5, size=4)])
            for i in range(10)
        ]
        rep = agreement_report(preds, annotations, scale_midpoint=2.5)
        errors = [abs(preds.scores[i] - preds.true_labels[i]) for i in range(10)]
        means = [np.mean(a.scores) for a in annotations]
        certs = [abs(np.mean(a.scores) - 2.5) for a in annotations]
        stds = [np.std(a.scores) for a in annotations]
        assert rep.n == 10
        assert rep.mean_annotation == pytest.approx(spearman_hand(errors, means), abs=1e-12)
        assert rep.certainty == pytest.approx(spearman_hand(errors, certs), abs=1e-12)
        assert rep.disagreement == pytest.approx(spearman_hand(errors, stds), abs=1e-12)

    def test_identical_annotations_flag_disagreement_undefined(self):
        preds = self._preds(5)
        annotations = [AnnotationRecord(f"d{i}", [2.0, 2.0, 2.0]) for i in range(5)]
        rep = agreement_report(preds, annotations, scale_midpoint=2.5)
        assert "disagreement-undefined" in rep.flags
        assert np.isnan(rep.disagreement)

    def test_midpoint_mean_gives_zero_certainty(self):
        preds = self._preds(4)
        annotations = [AnnotationRecord(f"d{i}", [1.0, 4.0, 1.0, 4.0]) for i in range(4)]
        rep = agreement_report(preds, annotations, scale_midpoint=2.5)
        assert "certainty-undefined" in rep.flags  # all certainties are zero

    def test_min_scores_filter(self):
        preds = self._preds(6)
        annotations = [AnnotationRecord(f"d{i}", [1.0] * (2 if i < 4 else 3))
                       for i in range(6)]
        with pytest.raises(UsageError, match="at least 3 joined"):
            agreement_report(preds, annotations, scale_midpoint=2.5)

    def test_too_few_joined_rejected(self):
        preds = self._preds(3)
        annotations = [AnnotationRecord("d0", [1.0, 2.0, 3.0])]
        with pytest.raises(UsageError):
            agreement_report(preds, annotations)


class TestEvalReport:
    def test_intervals_contain_point_and_matrix_symmetric(self, rng):
        n = 40
        true = rng.integers(0, 2, size=n)
        true[:2] = [0, 1]
        sets = []
        for name in ("a", "b", "c"):
            scores = rng.random(n)
            sets.append(pset(scores, (scores > 0.5).astype(int), true, name=name))
        report = evaluate_predictions(sets, n_resamples=100, seed=8)
        for row in report.rows:
            for cell in row.metrics.values():
                assert cell["lower"] <= cell["value"] <= cell["upper"]
        for matrix in report.significance.values():
            for i in range(3):
                assert matrix[i][i] is False
                for j in range(3):
                    assert matrix[i][j] == matrix[j][i]

    def test_prediction_set_validation(self):
        with pytest.raises(UsageError, match="equal lengths"):
            PredictionSet(["a"], np.array([0.5, 0.4]), np.array([1]), np.array([1]))
        with pytest.raises(UsageError, match="finite"):
            PredictionSet(["a"], np.array([np.inf]), np.array([1]), np.array([1]))
        for hard, true in (([2], [1]), ([1], [2]), ([-1], [0]), ([0], [-1])):
            with pytest.raises(UsageError, match="labels must be 0 or 1"):
                PredictionSet(["a"], np.array([0.5]), np.array(hard), np.array(true))
