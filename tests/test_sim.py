"""Tests for the run driver, result metrics, and spec fingerprints."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.sim.driver import run, run_many
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec


@pytest.fixture(scope="module")
def count_result():
    return run("millipede", "count", n_records=2048)


class TestRunResult:
    def test_metrics_consistent(self, count_result):
        r = count_result
        assert r.runtime_s == pytest.approx(r.finish_ps / 1e12)
        assert r.throughput_words_per_s == pytest.approx(r.input_words / r.runtime_s)
        assert r.insts_per_word > 1
        assert 0 < r.branches_per_inst < 1
        assert r.energy_per_word_j > 0
        assert r.energy_delay == pytest.approx(r.energy.total_j * r.runtime_s)

    def test_speedup_over(self, count_result):
        assert count_result.speedup_over(count_result) == pytest.approx(1.0)

    def test_summary_renders(self, count_result):
        s = count_result.summary()
        assert "millipede" in s and "count" in s

    def test_reduced_results_present(self, count_result):
        assert "counts" in count_result.reduced

    def test_validate_false_skips_reduction(self):
        r = run("millipede", "count", n_records=2048,
                options=ExecOptions(validate=False))
        assert r.reduced == {}
        assert not r.validated


class TestRunMany:
    def test_shares_built_workload(self):
        results = run_many(["ssmc", "millipede"], "count", n_records=2048)
        assert set(results) == {"ssmc", "millipede"}
        # identical data: identical reductions
        assert (results["ssmc"].reduced["invalid"]
                == results["millipede"].reduced["invalid"])

    def test_different_seeds_change_data(self):
        a = run("millipede", "count", n_records=2048, seed=0)
        b = run("millipede", "count", n_records=2048, seed=1)
        assert (a.reduced["counts"] != b.reduced["counts"]).any()

    def test_determinism(self):
        a = run("millipede", "nbayes", n_records=2048)
        b = run("millipede", "nbayes", n_records=2048)
        assert a.finish_ps == b.finish_ps
        assert a.collected["instructions"] == b.collected["instructions"]


class TestSpecFingerprint:
    """The result store keys on ``RunSpec.content_hash``; every config
    field must reach it (store round-trips and corrupt records are
    covered by tests/test_store.py)."""

    @staticmethod
    def fingerprint(cfg: SystemConfig) -> str:
        return RunSpec("millipede", "count", config=cfg,
                       n_records=2048).content_hash()

    def test_miss_on_different_config(self):
        other = SystemConfig().with_millipede(prefetch_entries=4)
        assert self.fingerprint(SystemConfig()) != self.fingerprint(other)

    def test_fingerprint_sensitive_to_every_field(self):
        a = self.fingerprint(SystemConfig())
        b = self.fingerprint(SystemConfig().with_dram(t_cas=10))
        c = self.fingerprint(SystemConfig().with_millipede(rate_match=True))
        assert len({a, b, c}) == 3
