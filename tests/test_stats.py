"""Tests for multi-seed replication statistics."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.stats import (
    MetricSummary,
    compare_policies,
    replicate,
    summarize_metric,
    summarize_replications,
)


class TestSummarizeMetric:
    def test_single_sample_degenerate_interval(self):
        summary = summarize_metric([2.5])
        assert summary.mean == summary.ci_low == summary.ci_high == 2.5
        assert summary.std == 0.0
        assert summary.samples == 1

    def test_mean_and_interval_cover_true_mean(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 1.0, size=50)
        summary = summarize_metric(values)
        assert summary.ci_low < 10.0 < summary.ci_high
        assert summary.mean == pytest.approx(float(values.mean()))
        assert summary.samples == 50

    def test_wider_interval_with_fewer_samples(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0.0, 1.0, size=100)
        narrow = summarize_metric(values)
        wide = summarize_metric(values[:5])
        assert (wide.ci_high - wide.ci_low) > (narrow.ci_high - narrow.ci_low)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            summarize_metric([])
        with pytest.raises(ValueError):
            summarize_metric([1.0, 2.0], confidence=1.5)

    def test_as_dict(self):
        data = summarize_metric([1.0, 2.0, 3.0]).as_dict()
        assert set(data) == {"mean", "std", "ci_low", "ci_high", "samples"}


class TestReplicate:
    def test_collects_per_seed_metrics(self):
        def experiment(seed):
            return {"acceptance": 0.5 + 0.01 * seed, "label": "ignored", "count": 3}

        results = replicate(experiment, seeds=[1, 2, 3])
        assert len(results) == 3
        assert results[0]["acceptance"] == pytest.approx(0.51)
        assert all("label" not in r for r in results)
        assert all(r["count"] == 3.0 for r in results)

    def test_empty_seed_list_rejected(self):
        with pytest.raises(ValueError):
            replicate(lambda seed: {}, seeds=[])


class TestSummarizeReplications:
    def test_per_metric_summaries(self):
        replications = [
            {"acceptance": 0.8, "latency": 20.0},
            {"acceptance": 0.9, "latency": 22.0},
            {"acceptance": 0.85, "latency": 21.0},
        ]
        summaries = summarize_replications(replications)
        assert isinstance(summaries["acceptance"], MetricSummary)
        assert summaries["acceptance"].mean == pytest.approx(0.85)
        assert summaries["latency"].mean == pytest.approx(21.0)

    def test_missing_metrics_tolerated(self):
        summaries = summarize_replications([{"a": 1.0}, {"a": 2.0, "b": 5.0}])
        assert summaries["a"].samples == 2
        assert summaries["b"].samples == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize_replications([])


class TestComparePolicies:
    def test_clear_winner_is_significant(self):
        rng = np.random.default_rng(2)
        strong = [{"acceptance": v} for v in rng.normal(0.9, 0.01, size=10)]
        weak = [{"acceptance": v} for v in rng.normal(0.5, 0.01, size=10)]
        rows = compare_policies({"strong": strong, "weak": weak}, "acceptance")
        assert len(rows) == 1
        row = rows[0]
        assert row["mean_difference"] > 0.3
        assert row["significant"] is True

    def test_identical_policies_not_significant(self):
        rng = np.random.default_rng(3)
        a = [{"acceptance": v} for v in rng.normal(0.7, 0.05, size=10)]
        b = [{"acceptance": v} for v in rng.normal(0.7, 0.05, size=10)]
        rows = compare_policies({"a": a, "b": b}, "acceptance")
        assert rows[0]["significant"] is False

    def test_single_sample_yields_infinite_interval(self):
        rows = compare_policies(
            {"a": [{"m": 1.0}], "b": [{"m": 2.0}]}, "m"
        )
        assert rows[0]["significant"] is False
        assert rows[0]["ci_low"] == -np.inf

    def test_pair_count(self):
        data = {name: [{"m": 1.0}, {"m": 2.0}] for name in ("a", "b", "c")}
        rows = compare_policies(data, "m")
        assert len(rows) == 3


def test_importing_repro_does_not_load_scipy():
    """scipy is imported only when a confidence interval is computed."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, repro; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"
