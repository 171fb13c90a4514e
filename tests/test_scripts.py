"""Tests for the helper scripts (cache population, experiment rendering)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestRenderExperiments:
    def test_renders_without_error(self):
        out = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "render_experiments.py")],
            capture_output=True, text=True, check=True,
        )
        assert "# EXPERIMENTS — paper vs. measured" in out.stdout
        assert "Table III" in out.stdout
        assert "Fig. 7" in out.stdout

    def test_paper_reference_numbers_present(self):
        out = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "render_experiments.py")],
            capture_output=True, text=True, check=True,
        )
        # Spot-check two published values from the paper's Table III.
        assert "0.8272" in out.stdout  # RNTrajRec F1, Chengdu x8
        assert "0.4916" in out.stdout  # Linear+HMM ACC, Chengdu x8


class TestStreamDemo:
    def test_runs_end_to_end(self):
        out = subprocess.run(
            [sys.executable, str(REPO / "examples" / "stream_demo.py")],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        # The demo hard-fails (SystemExit) on finalize/one-shot mismatch or
        # a missing backpressure shed, so a zero exit already proves both;
        # spot-check the narrative anyway.
        assert "identical to one-shot recovery: True" in out.stdout
        assert "SessionOverloaded" in out.stdout
        assert "FAIL" not in out.stdout


class TestOutputHashes:
    def test_prints_sorted_hashes_equal_across_built_and_mapped(self):
        """``scripts/output_hashes.py`` on a reduced metro: one sorted
        ``name sha256`` line per (request, model, output), three
        ``compute_loss`` lines per city, one line per streamed update
        and finalize of each ``http-cold`` request (4 fixes) and three
        ``cache`` lines per ``http-cold`` request (submit, resubmit,
        shifted), ``variant`` lines for 14 other model families
        (``encode`` + ``recover`` per ``http-cold`` request, one
        ``compute_loss`` per city), one ``artifact`` content hash per city,
        one ``network`` hash per dataset recipe plus the 125 m metro, a
        ``fit`` line and its ``resumed`` twin per ``http-cold`` city, equal
        (resume through ``fit(checkpoint=...)`` ≡ uninterrupted), a
        ``dataset`` line and its Linear+HMM ``eval`` line per distinct
        city recipe plus chengdu's elevated run, and a model built in
        memory hashes like the same weights mapped read-only — after the
        ``#`` environment header."""
        out = subprocess.run(
            [sys.executable, str(REPO / "scripts" / "output_hashes.py"),
             "--requests", "2", "--metro-block", "125"],
            capture_output=True, text=True, check=True)
        header = [line for line in out.stdout.splitlines() if line.startswith("#")]
        assert [line.split()[1] for line in header] == ["blas", "numpy", "python", "simd"]
        lines = out.stdout.splitlines()[len(header):]
        assert lines == sorted(lines) and len(lines) == \
            2 * 2 * 2 * 6 + 3 * 3 + 2 * (4 + 1) + 2 * 3 + 14 * (2 * 2 + 2) + 3 + 6 + 4 + 2 * 5
        hashes = dict(line.split() for line in lines)
        assert all(len(digest) == 64 for digest in hashes.values())
        variants = {name for name in hashes if "/variant/" in name}
        assert len(variants) == 14 * (2 * 2 + 2)
        training = {name for name in hashes if "/compute_loss@" in name} - variants
        assert len(training) == 3 * 3
        for name, digest in hashes.items():
            if name not in training:
                assert digest == hashes[name.replace("/built/", "/mmap/")]
        assert any(name.startswith("metro-burst/") for name in hashes)
        assert sum(name.endswith("/stream/finalize") for name in hashes) == 2
        assert sorted(name for name in hashes if "/artifact/" in name) == [
            "http-cold/artifact/chengdu", "http-cold/artifact/porto",
            "metro-burst/artifact/metro"]
        assert sorted(name for name in hashes if name.startswith("network/")) == [
            "network/chengdu", "network/chengdu_few", "network/metro@125",
            "network/porto", "network/shanghai", "network/shanghai_l"]
        assert sorted(name for name in hashes if name.startswith("fit/")) == [
            "fit/chengdu", "fit/chengdu/resumed", "fit/porto", "fit/porto/resumed"]
        for city in ("chengdu", "porto"):
            assert hashes[f"fit/{city}"] == hashes[f"fit/{city}/resumed"]
        runs = ["chengdu", "chengdu/elevated", "porto", "shanghai", "shanghai_l"]
        assert sorted(name for name in hashes if name.startswith("dataset/")) == [
            f"dataset/{run}" for run in runs]
        assert sorted(name for name in hashes if name.startswith("eval/")) == sorted(
            f"eval/{run}/linear_hmm" for run in runs)

    # Lines per kind in ``OUTPUT_HASHES.txt``: seed 1 at the default 48
    # requests per workload, over the 11 880-segment metro.
    COMMITTED_KINDS = {
        "assemble": 192, "subgraph": 192, "encode": 192, "prior": 192,
        "constraint": 192, "recover": 192, "compute_loss": 9, "artifact": 3,
        "stream": 240, "cache": 144, "variant": 112, "network": 6, "fit": 4,
        "dataset": 5, "eval": 5}

    @staticmethod
    def _kind(name):
        head, tail = name.split("/", 1)[0], name.rsplit("/", 1)[-1]
        if head in ("network", "fit", "dataset", "eval"):
            return head
        for kind in ("variant", "artifact", "stream", "cache"):
            if f"/{kind}/" in name:
                return kind
        return tail.split("@")[0]

    def test_committed_file_has_the_default_shape(self):
        """``OUTPUT_HASHES.txt`` — the script's output at its defaults —
        without re-running the script: its environment header, sorted
        64-hex lines, the per-kind counts, resume ≡ uninterrupted and
        built ≡ mapped."""
        text = (REPO / "OUTPUT_HASHES.txt").read_text().splitlines()
        header = [line for line in text if line.startswith("#")]
        assert text[:len(header)] == header
        assert [line.split()[1] for line in header] == ["blas", "numpy", "python", "simd"]
        assert all(len(line.split()) > 2 for line in header)
        lines = text[len(header):]
        assert lines == sorted(lines)
        hashes = dict(line.split(" ") for line in lines)
        assert len(hashes) == len(lines)
        assert all(len(d) == 64 and set(d) <= set("0123456789abcdef")
                   for d in hashes.values())
        counts = {kind: 0 for kind in self.COMMITTED_KINDS}
        for name in hashes:
            counts[self._kind(name)] += 1
        assert counts == self.COMMITTED_KINDS
        for city in ("chengdu", "porto"):
            assert hashes[f"fit/{city}"] == hashes[f"fit/{city}/resumed"]
        mapped = [name for name in hashes if "/mmap/" in name]
        assert len(mapped) == 6 * 2 * 48
        for name in mapped:
            assert hashes[name] == hashes[name.replace("/mmap/", "/built/")]


class TestCheckDocs:
    """``scripts/check_docs.py`` — the env-knob, API-name and route-table
    checks over a scratch tree (the knob names below are assembled at run
    time so this file never counts as "reading" them)."""

    READ, UNREAD, PREFIX = ("REPRO_" + "DOCTEST_READ", "REPRO_" + "DOCTEST_GONE",
                            "REPRO_" + "DOCTEST_")

    def _tree(self, tmp_path, doc="", workflow="", init=""):
        (tmp_path / "src" / "repro" / "pkg").mkdir(parents=True, exist_ok=True)
        (tmp_path / "src" / "repro" / "pkg" / "__init__.py").write_text(init)
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "bench_x.py").write_text(
            f'import os\nBUDGET = os.environ.get("{self.READ}", 1)\n')
        (tmp_path / "docs").mkdir(exist_ok=True)
        (tmp_path / "docs" / "api.md").write_text(f"`repro.pkg`\n{doc}\n")
        (tmp_path / ".github" / "workflows").mkdir(parents=True)
        (tmp_path / ".github" / "workflows" / "ci.yml").write_text(workflow)
        return subprocess.run(
            [sys.executable, str(REPO / "scripts" / "check_docs.py"),
             str(tmp_path)], capture_output=True, text=True)

    def test_read_knobs_and_prefix_mentions_pass(self, tmp_path):
        out = self._tree(tmp_path,
                         doc=f"`{self.READ}` sets it; see `{self.PREFIX}*`.",
                         workflow=f"run: {self.READ}=2 python x.py\n")
        assert out.returncode == 0, out.stdout

    def test_documented_knob_nothing_reads_fails(self, tmp_path):
        out = self._tree(tmp_path, doc=f"| `{self.UNREAD}` | model width |")
        assert out.returncode == 1
        assert f"docs/api.md: env knob '{self.UNREAD}'" in out.stdout

    def test_ci_step_setting_a_dead_knob_fails(self, tmp_path):
        out = self._tree(tmp_path,
                         workflow=f"run: {self.UNREAD}=1.3 python x.py\n")
        assert out.returncode == 1
        assert f"ci.yml: env knob '{self.UNREAD}'" in out.stdout

    FUTURE = "Commit `BENCH_future.json` and `src/repro/gone.py`.\n"

    def test_only_the_plan_may_name_an_artifact_nothing_writes_yet(self, tmp_path):
        plan, docs = tmp_path / "plan", tmp_path / "docs"
        plan.mkdir()
        (plan / "ROADMAP.md").write_text(self.FUTURE)
        out = self._tree(plan)
        assert out.returncode == 1  # the plan's paths are still checked
        assert "ROADMAP.md: names missing path 'src/repro/gone.py'" in out.stdout
        assert "BENCH_future.json" not in out.stdout
        docs.mkdir()
        out = self._tree(docs, doc=self.FUTURE)
        assert "docs/api.md: artifact 'BENCH_future.json' is not produced" in out.stdout

    INIT = "from .engine import Engine, build as make\nLIMIT = 3\n"

    def test_api_names_the_package_binds_pass(self, tmp_path):
        (tmp_path / "src" / "repro" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "pkg" / "engine.py").write_text("")
        out = self._tree(
            tmp_path, init=self.INIT,
            doc="`pkg.Engine(capacity)`, `pkg.make`, `pkg.LIMIT` and "
                "`pkg.engine.Engine`; `pkg.py run` is a script, not a name.")
        assert out.returncode == 0, out.stdout

    def test_stale_api_name_is_reported(self, tmp_path):
        out = self._tree(tmp_path, init=self.INIT,
                         doc="`pkg.Engine` / `pkg.build` (`admit`, `step`)")
        assert out.returncode == 1
        assert "docs/api.md: `pkg.build` is not bound" in out.stdout
        assert "pkg.Engine" not in out.stdout

    TABLE = ('def routes():\n    return {("GET", "/healthz"): ok,\n'
             '            ("POST", "/recover"): recover}\n')

    def _routed(self, tmp_path, rows):
        (tmp_path / "scripts").mkdir()
        (tmp_path / "scripts" / "serve.py").write_text(self.TABLE)
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "door.md").write_text(
            "| Route | Method | Body |\n| --- | --- | --- |\n" + rows)
        return self._tree(tmp_path)

    def test_route_table_and_endpoint_table_agree(self, tmp_path):
        out = self._routed(tmp_path, "| `/healthz` | GET | ok |\n"
                                     "| `/recover` | POST | a trace |\n")
        assert out.returncode == 0, out.stdout

    def test_undocumented_and_unrouted_endpoints_fail(self, tmp_path):
        out = self._routed(tmp_path, "| `/healthz` | GET | ok |\n"
                                     "| `/recover` | GET | wrong method |\n")
        assert out.returncode == 1
        assert "route `POST /recover` is in no endpoint table" in out.stdout
        assert "docs/door.md: endpoint table lists `GET /recover`" in out.stdout
        assert "/healthz" not in out.stdout

    HOOKS = ("## Profiling hooks\n\n| Section | Where |\n| --- | --- |\n"
             "| `decode.greedy` / `decode.full_row` | decoder |\n")

    def _profiled(self, tmp_path, hooks):
        (tmp_path / "src" / "repro" / "pkg").mkdir(parents=True)
        (tmp_path / "src" / "repro" / "pkg" / "step.py").write_text(
            'with profile.section("decode.greedy"):\n'
            '    profile.count("decode.full_row")\n'
            'PROFILER.section(name)  # the registry itself, not a hook\n')
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "architecture.md").write_text(
            hooks + "\n## Next section\n\n| `decode.beam` | elsewhere |\n")
        return self._tree(tmp_path)

    def test_profile_hooks_and_table_agree(self, tmp_path):
        out = self._profiled(tmp_path, self.HOOKS)
        assert out.returncode == 0, out.stdout

    def test_stale_and_missing_profile_names_fail(self, tmp_path):
        out = self._profiled(tmp_path, self.HOOKS.replace(
            "`decode.full_row`", "`decode.beam`"))
        assert out.returncode == 1
        assert "profile name `decode.full_row` is in no row" in out.stdout
        assert "table lists `decode.beam`, which no" in out.stdout
        assert "decode.greedy" not in out.stdout


class TestPopulateCacheScript:
    def test_job_table_lists_all_jobs(self):
        sys.path.insert(0, str(REPO / "scripts"))
        try:
            import populate_cache

            assert set(populate_cache.JOBS) == {
                "t3a", "t3b", "t3c", "t3d", "t4", "t5", "f6", "f7"
            }
            assert len(populate_cache.METHODS) == 9
        finally:
            sys.path.pop(0)


class TestCacheFormat:
    def test_cached_results_shape(self):
        cache = REPO / "benchmarks" / "_cache"
        # Experiment rows only — the cache also holds standalone benchmark
        # artifacts with their own schema.  Use the same key-based predicate
        # as scripts/render_experiments.py's load_results().
        rows = []
        for path in cache.glob("*.json"):
            with open(path) as handle:
                payload = json.load(handle)
            if "method" in payload and "dataset" in payload:
                rows.append(payload)
        if not rows:
            pytest.skip("benchmark cache not yet populated")
        row = rows[0]
        for key in ("dataset", "method", "metrics", "sr_at_k",
                    "inference_ms_per_trajectory", "num_parameters"):
            assert key in row
        assert set(row["metrics"]) == {
            "Recall", "Precision", "F1 Score", "Accuracy", "MAE", "RMSE"
        }
