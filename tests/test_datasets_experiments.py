"""Tests for the dataset registry and the cached experiment harness."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import RNTrajRecConfig
from repro.datasets import dataset_names, get_spec, load_dataset
from repro.experiments import (
    METHOD_NAMES,
    format_table,
    harness,
    quick_train_config,
    run_experiment,
)
from repro.experiments.harness import ExperimentResult, load_cached
from repro.train import TrainConfig

SRC = Path(__file__).resolve().parent.parent / "src"


class TestRegistry:
    def test_all_five_paper_datasets_present(self):
        names = dataset_names()
        for expected in ("chengdu", "porto", "shanghai_l", "shanghai", "chengdu_few"):
            assert expected in names

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_spec("beijing")

    def test_chengdu_few_is_scaled_chengdu(self):
        full = get_spec("chengdu")
        few = get_spec("chengdu_few")
        assert few.num_trajectories == int(full.num_trajectories * 0.2)
        assert few.city == full.city

    def test_spec_scaled_floor(self):
        spec = get_spec("chengdu").scaled(0.0001)
        assert spec.num_trajectories >= 20

    def test_relative_scales_mirror_paper(self):
        """Shanghai-L is the largest area; sample intervals are 12/15/10."""
        chengdu, porto, shl = get_spec("chengdu"), get_spec("porto"), get_spec("shanghai_l")
        assert shl.city.width * shl.city.height > chengdu.city.width * chengdu.city.height
        assert chengdu.simulation.sample_interval == 12.0
        assert porto.simulation.sample_interval == 15.0
        assert shl.simulation.sample_interval == 10.0
        assert shl.dataset.keep_every == 16

    def test_load_dataset_split_and_stats(self):
        data = load_dataset("chengdu", num_trajectories=30)
        total = len(data.train) + len(data.val) + len(data.test)
        assert total == 30
        assert len(data.train) == 21  # 7:2:1 split
        stats = data.statistics()
        assert stats["# Trajectories"] == 30
        assert stats["# Road segments"] == data.network.num_segments
        assert stats["Input interval (s)"] == 96.0

    def test_load_dataset_keep_every_override(self):
        data = load_dataset("chengdu", num_trajectories=20, keep_every=16)
        sample = data.train[0]
        assert sample.input_length == 3  # ceil(25/16)+last

    def test_deterministic_loads(self):
        a = load_dataset("porto", num_trajectories=15)
        b = load_dataset("porto", num_trajectories=15)
        assert np.allclose(a.train[0].raw_low.xy, b.train[0].raw_low.xy)


class TestHarness:
    def test_method_names_complete(self):
        assert "rntrajrec" in METHOD_NAMES
        assert len(METHOD_NAMES) == 9

    def test_run_experiment_and_cache(self, tmp_path):
        config = RNTrajRecConfig(hidden_dim=8, num_heads=2, max_subgraph_nodes=8,
                                 receptive_delta=200.0, dropout=0.0)
        train = TrainConfig(epochs=1, batch_size=8, validate=False)
        kwargs = dict(
            dataset="chengdu", method="mtrajrec", trajectories=20,
            model_config=config, train_config=train, cache_dir=tmp_path,
        )
        first = run_experiment(**kwargs)
        assert set(first.metrics) == {"Recall", "Precision", "F1 Score", "Accuracy", "MAE", "RMSE"}
        assert first.num_parameters > 0
        assert first.train_seconds > 0

        # Second call must come from cache (train_seconds identical object).
        second = run_experiment(**kwargs)
        assert second.metrics == first.metrics
        assert second.train_seconds == first.train_seconds

    def test_linear_hmm_needs_no_training(self, tmp_path):
        result = run_experiment(
            dataset="chengdu", method="linear_hmm", trajectories=20,
            cache_dir=tmp_path,
        )
        assert result.train_seconds == 0.0
        assert result.num_parameters == 0

    def test_code_change_misses_the_cache(self, tmp_path, monkeypatch):
        """A cell computed by other code is never served: the digest of
        the ``repro`` source is part of the fingerprint."""
        kwargs = dict(dataset="chengdu", method="linear_hmm", trajectories=20,
                      cache_dir=tmp_path)
        run_experiment(**kwargs)
        assert len(list(tmp_path.glob("*.json"))) == 1
        monkeypatch.setattr(harness, "code_identity", lambda: "0" * 64)
        run_experiment(**kwargs)
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_variant_tag_changes_cache_key(self, tmp_path):
        config = RNTrajRecConfig(hidden_dim=8, num_heads=2, max_subgraph_nodes=8,
                                 receptive_delta=200.0)
        train = TrainConfig(epochs=1, batch_size=8, validate=False)
        a = run_experiment(dataset="chengdu", method="linear_hmm", trajectories=20,
                           cache_dir=tmp_path, variant_tag="")
        b = run_experiment(dataset="chengdu", method="linear_hmm", trajectories=20,
                           cache_dir=tmp_path, variant_tag="other")
        assert a.method == "linear_hmm"
        assert b.method == "linear_hmm[other]"

    def test_an_uncached_run_neither_reads_nor_writes_the_cache(self, tmp_path):
        run_experiment(dataset="chengdu", method="linear_hmm", trajectories=20,
                       cache_dir=tmp_path, use_cache=False)
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _tiny_row(method, cache_dir):
        """One learned row at a tiny budget, computed afresh."""
        result = run_experiment("chengdu", method, trajectories=24,
                                train_config=quick_train_config(1),
                                cache_dir=Path(cache_dir), use_cache=False)
        return [result.metrics, result.sr_at_k, result.num_parameters]

    def test_a_row_does_not_depend_on_the_methods_before_it(self, tmp_path):
        """Transformer after MTrajRec in this process equals Transformer
        alone in a fresh one: the harness seeds the weights itself."""
        self._tiny_row("mtrajrec", tmp_path)
        after = self._tiny_row("transformer", tmp_path)
        script = ("import json, sys\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from test_datasets_experiments import TestHarness\n"
                  "print(json.dumps(TestHarness._tiny_row('transformer', sys.argv[2])))\n")
        alone = subprocess.run(
            [sys.executable, "-c", script, str(Path(__file__).parent),
             str(tmp_path)],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SRC)})
        assert after == json.loads(alone.stdout)

    def test_default_cache_dir_does_not_follow_the_working_directory(
            self, tmp_path):
        """Without ``REPRO_CACHE_DIR`` every process reads and writes the
        repository's ``benchmarks/_cache``, wherever it was started."""
        env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
        env["PYTHONPATH"] = str(SRC)
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.experiments.harness import DEFAULT_CACHE_DIR\n"
             "print(DEFAULT_CACHE_DIR.resolve())"],
            capture_output=True, text=True, check=True, cwd=tmp_path, env=env)
        assert Path(out.stdout.strip()) == SRC.parent / "benchmarks" / "_cache"

    def test_format_table_contains_rows(self):
        result = ExperimentResult(
            dataset="chengdu", method="demo",
            metrics={"Recall": 0.5, "Precision": 0.6, "F1 Score": 0.54,
                     "Accuracy": 0.4, "MAE": 123.4, "RMSE": 200.1},
            sr_at_k={}, inference_ms_per_trajectory=1.0, num_parameters=10,
            train_seconds=0.0, config={},
        )
        table = format_table([result], "Table X")
        assert "Table X" in table
        assert "demo" in table
        assert "123.40" in table
