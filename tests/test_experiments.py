"""Tests for the experiment harness plumbing (fast paths only; the full
figure regenerations are exercised by benchmarks/)."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.experiments import EXPERIMENTS, table3
from repro.experiments.common import (
    ExperimentResult,
    ascii_bars,
    batch_run,
    format_table,
    geomean,
    markdown_table,
)
from repro.experiments.report import write_markdown
from repro.sim.options import ExecOptions
from repro.sim.spec import RunSpec
from repro.sim.store import FingerprintStore


@pytest.fixture
def cli_store(tmp_path, monkeypatch):
    """The experiment CLI's default result tier, rooted in ``tmp_path``."""
    from repro.experiments.runner import build_parser

    monkeypatch.chdir(tmp_path)
    return build_parser().parse_args(["table4"]).store


def store_len(root) -> int:
    with FingerprintStore(root) as store:
        return len(store)


class TestFormatting:
    def test_format_table_aligns(self):
        out = format_table(["a", "bb"], [["x", 1.5], ["yy", 22.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "22.25" in lines[-1]

    def test_markdown_table(self):
        out = markdown_table(["a"], [[1.0]])
        assert out.splitlines()[1] == "|---|"

    def test_ascii_bars_scale_to_max(self):
        out = ascii_bars(["x", "y"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_geomean(self):
        assert geomean([1, 4]) == pytest.approx(2.0)
        assert geomean([]) == 0.0
        assert geomean([2.0]) == 2.0


class TestExperimentResult:
    def test_text_and_markdown_render(self):
        res = ExperimentResult(
            name="x", title="T", headers=["h"], rows=[[1.0]],
            notes=["n"], extra_sections=["sec"],
        )
        assert "T" in res.text() and "sec" in res.text()
        md = res.markdown()
        assert md.startswith("### T")
        assert "*n*" in md


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(EXPERIMENTS) == {
            "table3", "table4", "fig3", "fig4", "fig5", "fig6", "fig7"
        }

    def test_table3_needs_no_simulation(self):
        res = table3.run_experiment(SystemConfig())
        assert any("700 MHz" in str(c) for row in res.rows for c in row)


class TestBatchRunStore:
    def test_store_hit_skips_simulation(self, tmp_path):
        spec = RunSpec("millipede", "count", n_records=1024)
        first = batch_run([spec], store=tmp_path)[spec]
        second = batch_run([spec], store=tmp_path)[spec]
        assert second.finish_ps == first.finish_ps
        # the second call was a hit: it recorded nothing new
        assert store_len(tmp_path) == 1


class TestOptionsAreStoredSeparately:
    """Every ExecOptions field is part of the result-store key: a record
    run under one set of options is never served to another."""

    def test_unvalidated_record_not_served_to_default_spec(self, cli_store):
        spec = RunSpec("millipede", "count", n_records=256)
        batch_run([spec.replace(options=ExecOptions(validate=False))],
                  store=cli_store)
        result = batch_run([spec], store=cli_store)[spec]
        assert store_len(cli_store) == 2  # the default spec was a miss
        assert result.validated is True

    def test_sanitized_spec_simulates_after_plain_run(self, cli_store):
        plain = RunSpec("millipede", "count", n_records=256)
        sanitized = plain.replace(options=ExecOptions(sanitize=True))
        batch_run([plain], store=cli_store)
        batch_run([sanitized], store=cli_store)
        # a record under the sanitized fingerprint exists only if the
        # sanitized spec was simulated, not served the plain record
        with FingerprintStore(cli_store) as store:
            assert sanitized.content_hash() in store
            assert len(store) == 2


class TestReport:
    def test_write_markdown(self, tmp_path):
        res = ExperimentResult("x", "Title", ["h"], [[1.0]])
        path = write_markdown([res], tmp_path / "out.md")
        text = path.read_text()
        assert "### Title" in text
        assert "Calibration record" in text


class TestRunnerCli:
    def test_parser_accepts_all(self):
        from repro.experiments.runner import build_parser

        p = build_parser()
        args = p.parse_args(["table3", "--records", "512"])
        assert args.which == "table3" and args.records == 512

    def test_cli_table3_runs(self, capsys, tmp_path, monkeypatch):
        from repro.experiments.runner import main

        monkeypatch.chdir(tmp_path)
        assert main(["table3"]) == 0
        out = capsys.readouterr().out
        assert "hardware parameters" in out

    def test_default_store_serves_second_run(self, capsys, tmp_path,
                                             monkeypatch):
        from repro.experiments.runner import build_parser, main

        monkeypatch.chdir(tmp_path)
        argv = ["table4", "--records", "128"]

        def table(extra=()) -> list[str]:
            assert main(argv + list(extra)) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines() if " took " not in line]

        def records() -> int:
            # raw log lines: a re-simulated fingerprint appends a record
            log = tmp_path / ".repro_cache" / "log"
            return sum(len(p.read_bytes().splitlines())
                       for p in log.glob("*.jsonl"))

        first = table()
        recorded = records()
        assert recorded == 16  # 8 benchmarks x (ssmc, millipede-rm)
        assert table() == first
        assert records() == recorded  # served from the default store
        assert table(["--no-resume"]) == first
        assert records() == 2 * recorded
        # the session-cache flags are gone: argparse rejects them
        for verb in ("no", "clear"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["table4", f"--{verb}-cache"])
