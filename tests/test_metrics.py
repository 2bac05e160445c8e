import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import pairwise_auc
from qgjet.metrics import (MetricReport, aggregate_seeds, compute_metrics, confusion_and_prf,
                           roc_auc)


@st.composite
def scored_labels(draw):
    """Scores from a few levels so ties are common, with both classes present."""
    n = draw(st.integers(2, 40))
    levels = draw(st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=6))
    scores = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)
                  .filter(lambda ls: 0 < sum(ls) < len(ls)))
    return np.array(scores), np.array(labels)


@settings(max_examples=200, deadline=None)
@given(scored_labels())
def test_roc_auc_matches_pairwise_oracle(data):
    scores, labels = data
    assert roc_auc(scores, labels) == pytest.approx(pairwise_auc(scores, labels), abs=1e-12)


def test_roc_auc_all_tied_is_one_half():
    assert roc_auc(np.full(6, 0.3), np.array([0, 1, 0, 1, 1, 0])) == 0.5


def test_roc_auc_needs_both_classes():
    with pytest.raises(ValueError):
        roc_auc(np.array([0.1, 0.9]), np.array([1, 1]))


def test_confusion_counts():
    scores = np.array([0.9, 0.2, 0.6, 0.4, 0.5])
    labels = np.array([1, 1, 0, 0, 1])
    confusion, accuracy, precision, recall, f1, degenerate = confusion_and_prf(scores, labels)
    assert confusion.tolist() == [[1, 1], [1, 2]]  # rows true, cols predicted; 0.5 is positive
    assert (accuracy, precision, recall) == (3 / 5, 2 / 3, 2 / 3)
    assert f1 == pytest.approx(2 / 3)
    assert not degenerate


def test_no_positive_prediction_is_degenerate():
    report = compute_metrics(np.array([0.1, 0.2, 0.3, 0.4]), np.array([0, 1, 0, 1]))
    assert report.degenerate
    assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
    assert report.accuracy == 0.5


def test_no_positive_label_is_degenerate():
    _, accuracy, precision, recall, f1, degenerate = confusion_and_prf(
        np.array([0.9, 0.1]), np.array([0, 0]))
    assert degenerate
    assert (precision, recall, f1, accuracy) == (0.0, 0.0, 0.0, 0.5)


def _report(accuracy):
    return MetricReport(accuracy=accuracy, precision=0.5, recall=1.0, f1=0.25, roc_auc=0.75)


def test_aggregate_uses_sample_std():
    agg = aggregate_seeds([_report(0.6), _report(0.8), _report(0.7)])
    mean, std = agg["accuracy"]
    assert mean == pytest.approx(0.7)
    assert std == pytest.approx(0.1)  # ddof=1: sqrt((0.01 + 0.01 + 0) / 2)
    assert agg["precision"] == (0.5, 0.0)


def test_aggregate_single_seed_has_zero_std():
    agg = aggregate_seeds([_report(0.6)])
    assert agg == {"accuracy": (0.6, 0.0), "precision": (0.5, 0.0), "recall": (1.0, 0.0),
                   "f1": (0.25, 0.0), "roc_auc": (0.75, 0.0)}
