"""Tests for the parallel sweep runner and its result cache."""

import json

import pytest

from repro.experiments import sweep
from repro.experiments.sweep import SweepCache, SweepTask, run_sweep


def _double(value: int, offset: int = 0) -> dict:
    return {"value": value, "result": value * 2 + offset}


def _bad_point(value: int) -> list:
    return [value]


class TestRunSweep:
    def test_rows_in_parameter_order(self):
        rows = run_sweep(_double, [{"value": v} for v in (3, 1, 2)])
        assert [r["value"] for r in rows] == [3, 1, 2]
        assert [r["result"] for r in rows] == [6, 2, 4]

    def test_empty_sweep(self):
        assert run_sweep(_double, []) == []

    def test_non_dict_row_rejected(self):
        # Strict mode (the default) surfaces the bad row as a sweep failure
        # carrying the original TypeError diagnosis.
        with pytest.raises(sweep.SweepPointsFailed) as excinfo:
            run_sweep(_bad_point, [{"value": 1}],
                      options=sweep.SweepOptions(max_retries=0))
        failure = excinfo.value.outcome.failures[0]
        assert failure.error_type == "TypeError"
        assert "must return a dict row" in failure.message

    def test_explicit_process_count(self):
        rows = run_sweep(_double, [{"value": v} for v in range(4)],
                         processes=2)
        assert [r["result"] for r in rows] == [0, 2, 4, 6]

    def test_serial_matches_parallel(self):
        params = [{"value": v} for v in range(6)]
        assert (run_sweep(_double, params, processes=1)
                == run_sweep(_double, params, processes=3))


class TestSweepCache:
    def test_cache_round_trip(self, tmp_path):
        params = [{"value": v} for v in (1, 2)]
        first = run_sweep(_double, params, cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 2
        second = run_sweep(_double, params, cache_dir=tmp_path)
        assert first == second

    def test_cache_replays_without_recompute(self, tmp_path):
        params = [{"value": 7}]
        run_sweep(_double, params, cache_dir=tmp_path)
        # Poison the cached row; a replay must return the poisoned value,
        # proving the point function was not re-invoked.
        path = next(tmp_path.glob("*.json"))
        entry = json.loads(path.read_text())
        entry["row"]["result"] = 999
        path.write_text(json.dumps(entry))
        rows = run_sweep(_double, params, cache_dir=tmp_path)
        assert rows[0]["result"] == 999

    def test_cache_key_distinguishes_params(self, tmp_path):
        run_sweep(_double, [{"value": 1}], cache_dir=tmp_path)
        rows = run_sweep(_double, [{"value": 2}], cache_dir=tmp_path)
        assert rows[0]["result"] == 4
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_cache_key_distinguishes_functions(self):
        task_a = SweepTask("m", "f", {"value": 1})
        task_b = SweepTask("m", "g", {"value": 1})
        assert task_a.cache_key() != task_b.cache_key()

    def test_cache_key_distinguishes_platform_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_PLATFORM", raising=False)
        default = SweepTask("m", "f", {"value": 1}).cache_key()
        monkeypatch.setenv("REPRO_PLATFORM", "hbm2")
        retargeted = SweepTask("m", "f", {"value": 1}).cache_key()
        assert default != retargeted

    def test_cache_key_distinguishes_burst_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_DISABLE_BURST", raising=False)
        default = SweepTask("m", "f", {"value": 1}).cache_key()
        monkeypatch.setenv("REPRO_DISABLE_BURST", "1")
        per_cycle = SweepTask("m", "f", {"value": 1}).cache_key()
        assert default != per_cycle

    def test_cache_key_distinguishes_code_version(self):
        base = SweepTask("m", "f", {"value": 1})
        edited = SweepTask("m", "f", {"value": 1},
                           code="different-fingerprint")
        assert base.cache_key() != edited.cache_key()
        assert base.code == sweep.code_fingerprint()

    def test_stale_rows_not_replayed_across_environment(self, tmp_path,
                                                        monkeypatch):
        # A row cached under one platform must not satisfy a sweep run
        # under another: the same params hash to a different key.
        monkeypatch.delenv("REPRO_PLATFORM", raising=False)
        run_sweep(_double, [{"value": 4}], cache_dir=tmp_path)
        assert len(list(tmp_path.glob("*.json"))) == 1
        monkeypatch.setenv("REPRO_PLATFORM", "ddr5-4800")
        rows = run_sweep(_double, [{"value": 4}], cache_dir=tmp_path)
        assert rows[0]["result"] == 8
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_corrupt_cache_entry_recomputed(self, tmp_path):
        cache = SweepCache(tmp_path)
        task = SweepTask(_double.__module__, _double.__qualname__,
                         {"value": 3})
        (tmp_path / f"{task.cache_key()}.json").write_text("{not json")
        assert cache.load(task) is None
        rows = run_sweep(_double, [{"value": 3}], cache_dir=tmp_path)
        assert rows[0]["result"] == 6

    def test_env_var_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(sweep.CACHE_ENV_VAR, raising=False)
        assert sweep.default_cache_dir() is None
        monkeypatch.setenv(sweep.CACHE_ENV_VAR, "")
        assert sweep.default_cache_dir() is None

    def test_env_var_enables_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv(sweep.CACHE_ENV_VAR, str(tmp_path))
        run_sweep(_double, [{"value": 5}])
        assert len(list(tmp_path.glob("*.json"))) == 1


class TestFigureRouting:
    """The figure entry points route through the sweep runner with caching."""

    def test_fig14_rows_cached(self, tmp_path):
        from repro.experiments.fig14_scaling import run_scalability_comparison
        kwargs = dict(rank_configs=[(2, 2)], workloads=["dot"],
                      cycles=400, warmup=40, elements_per_rank=1 << 10,
                      cache_dir=tmp_path)
        first = run_scalability_comparison(**kwargs)
        second = run_scalability_comparison(**kwargs)
        assert first == second
        assert len(first) == 2  # chopim + rank partitioning
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_fig02_routing(self):
        from repro.experiments.fig02_idle import run_idle_histogram
        rows = run_idle_histogram(mixes=["mix8"], cycles=400, warmup=40)
        assert len(rows) == 1 and rows[0]["mix"] == "mix8"
