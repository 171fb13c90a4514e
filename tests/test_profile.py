"""Tests for the profiling registry and the sections wired into the hot path."""

import threading
import time

import numpy as np
import pytest

from repro import profile
from repro.core import RNTrajRec, RNTrajRecConfig
from repro.profile import Profiler
from repro.roadnet import CityConfig, generate_city
from repro.trajectory import (
    DatasetConfig,
    SimulationConfig,
    TrajectorySimulator,
    build_samples,
    make_batch,
)


class TestProfiler:
    def test_disabled_sections_are_noops(self):
        p = Profiler()
        with p.section("x"):
            pass
        p.count("c")
        snap = p.stats()
        assert snap["sections"] == {} and snap["counters"] == {}

    def test_sections_and_counters_record(self):
        p = Profiler(enabled=True)
        for _ in range(3):
            with p.section("work"):
                time.sleep(0.001)
        p.count("items", 5)
        p.count("items", 2)
        snap = p.stats()
        assert snap["sections"]["work"]["count"] == 3
        assert snap["sections"]["work"]["total_s"] >= 0.003
        assert snap["sections"]["work"]["min_ms"] <= snap["sections"]["work"]["max_ms"]
        assert snap["counters"]["items"] == 7

    def test_reset_and_report(self):
        p = Profiler(enabled=True)
        with p.section("stage"):
            pass
        assert "stage" in p.report()
        p.reset()
        assert p.stats()["sections"] == {}

    def test_thread_safety(self):
        p = Profiler(enabled=True)

        def worker():
            for _ in range(200):
                with p.section("shared"):
                    pass
                p.count("n")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        snap = p.stats()
        assert snap["sections"]["shared"]["count"] == 800
        assert snap["counters"]["n"] == 800

    def test_exception_still_records(self):
        p = Profiler(enabled=True)
        with pytest.raises(ValueError):
            with p.section("failing"):
                raise ValueError("boom")
        assert p.stats()["sections"]["failing"]["count"] == 1


class TestWiredSections:
    def test_recover_populates_hotpath_sections(self):
        city = generate_city(CityConfig(width=1000, height=1000, block=250, seed=9))
        config = RNTrajRecConfig(hidden_dim=16, num_heads=2, dropout=0.0,
                                 max_subgraph_nodes=16, receptive_delta=250.0)
        model = RNTrajRec(city, config)
        model.eval()
        sim = TrajectorySimulator(city, SimulationConfig(target_points=9, seed=2))
        batch = make_batch(build_samples(sim.simulate(3), city,
                                         DatasetConfig(keep_every=4)))
        profile.reset()
        profile.enable()
        try:
            model.recover(batch)
        finally:
            profile.disable()
        sections = profile.stats()["sections"]
        for name in ("model.recover", "model.encode", "subgraph.batch",
                     "decode.greedy", "decode.prior", "encoder.road_features"):
            assert name in sections, name
        profile.reset()


class TestMemorySnapshot:
    def test_self_only_shape_is_unchanged(self):
        snap = profile.memory_snapshot()
        assert set(snap) == {"rss_mb", "peak_rss_mb"}
        assert snap["rss_mb"] > 0
        assert snap["peak_rss_mb"] >= snap["rss_mb"] * 0.5

    def test_children_are_folded_in(self):
        """With worker pids the snapshot covers the whole process tree:
        rss sums parent + children, and pss (when the kernel exposes
        smaps_rollup) counts pages shared between them only once."""
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        stop = ctx.Event()
        child = ctx.Process(target=stop.wait, daemon=True)
        child.start()
        try:
            solo = profile.memory_snapshot()
            tree = profile.memory_snapshot(pids=[child.pid])
            assert tree["processes"] == 2
            assert tree["children_rss_mb"] > 0
            assert tree["rss_mb"] == pytest.approx(
                solo["rss_mb"] + tree["children_rss_mb"], rel=0.25)
            if "pss_mb" in tree:  # kernel-dependent, but never nonsense
                assert 0 < tree["pss_mb"] <= tree["rss_mb"] * 1.01
        finally:
            stop.set()
            child.join(timeout=10)

    def test_dead_pid_contributes_nothing(self):
        solo = profile.memory_snapshot()
        tree = profile.memory_snapshot(pids=[2 ** 22 + 1])  # no such pid
        assert tree["children_rss_mb"] == 0
        assert tree["rss_mb"] == pytest.approx(solo["rss_mb"], rel=0.25)

    def test_proc_rss_is_positive_for_live_pid(self):
        import os

        assert profile.proc_rss_mb(os.getpid()) > 0
        assert profile.proc_rss_mb(2 ** 22 + 1) == 0.0
