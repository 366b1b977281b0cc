"""``tictac-repro replay``: end-to-end CLI runs + SIGKILL crash-resume.

The crash-resume test is the subsystem's acceptance scenario: a replay
killed mid-stream by SIGKILL (a driver script wraps the sink's chunk
commit to kill its own process, the same crash shape the
sweep-resilience suite injects into pool workers) and resumed with
``--resume`` must leave the per-job CSV **and** the aggregated summary
byte-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import pathlib
import signal
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


#: ``python -c`` driver: run ``tictac-repro replay ARGS`` but SIGKILL
#: the process right after the sink's 2nd chunk commit, leaving exactly
#: the on-disk state a real mid-replay crash would (committed manifest,
#: possibly-partial tail).
CRASH_AFTER_2_COMMITS = """
import os, signal, sys
from repro.experiments import cli
from repro.replay.sink import CsvChunkSink

commit = CsvChunkSink._commit

def commit_then_die(self):
    commit(self)
    if self.chunks_committed >= 2:
        os.kill(os.getpid(), signal.SIGKILL)

CsvChunkSink._commit = commit_then_die
sys.exit(cli.main(["replay", *sys.argv[1:]]))
"""


def run_cli(args, cwd, check=True, driver=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_SCALE", None)
    env.pop("REPRO_JOBS", None)
    entry = ["-c", driver] if driver else ["-m", "repro.experiments", "replay"]
    proc = subprocess.run(
        [sys.executable, *entry, *args],
        cwd=cwd, env=env, capture_output=True, text=True,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


SMALL = ["--n-jobs", "6", "--horizon-s", "400", "--n-hosts", "4",
         "--chunk-rows", "2", "--quiet"]


class TestReplayCli:
    def test_end_to_end_synthetic(self, tmp_path):
        run_cli([*SMALL, "--results-dir", "out"], tmp_path)
        jobs = (tmp_path / "out" / "replay_jobs.csv").read_bytes()
        assert jobs.count(b"\r\n") == 7  # header + 6 job rows
        summary = (tmp_path / "out" / "replay.csv").read_text()
        assert "mean_jct_s" in summary and "mix" in summary

    def test_unknown_arrival_suggests(self, tmp_path):
        proc = run_cli(
            [*SMALL, "--arrival", "poison"], tmp_path, check=False
        )
        assert proc.returncode == 2
        assert "did you mean 'poisson'" in proc.stderr

    def test_unknown_admission_suggests(self, tmp_path):
        proc = run_cli(
            [*SMALL, "--admission", "fifi"], tmp_path, check=False
        )
        assert proc.returncode == 2
        assert "did you mean 'fifo'" in proc.stderr

    def test_unknown_platform_suggests(self, tmp_path):
        proc = run_cli(
            [*SMALL, "--platform", "envc"], tmp_path, check=False
        )
        assert proc.returncode == 2
        assert "unknown platform 'envc'" in proc.stderr
        # 'envG' ties with 'envC' and ranks first: check membership only
        _, _, hints = proc.stderr.partition("did you mean")
        assert "'envC'" in hints

    def test_resume_without_prior_run_fails(self, tmp_path):
        proc = run_cli([*SMALL, "--resume"], tmp_path, check=False)
        assert proc.returncode == 2
        assert "no manifest" in proc.stderr

    def test_completed_run_leaves_nothing_to_resume(self, tmp_path):
        """A finished replay deletes its sink manifest and writes only the
        jobs stream and the summary: resuming it is an error."""
        run_cli([*SMALL, "--results-dir", "out"], tmp_path)
        out = tmp_path / "out"
        assert not (out / "replay_jobs.csv.manifest.json").exists()
        assert not (out / "replay_stats.csv").exists()
        assert sorted(p.name for p in out.glob("*.csv")) == [
            "replay.csv", "replay_jobs.csv"
        ]
        proc = run_cli(
            [*SMALL, "--results-dir", "out", "--resume"], tmp_path, check=False
        )
        assert proc.returncode == 2
        assert "no manifest" in proc.stderr

    def test_custom_out_paths_are_honoured(self, tmp_path):
        run_cli([*SMALL, "--results-dir", "ref"], tmp_path)
        run_cli(
            [*SMALL, "--results-dir", "out", "--out", "a/jobs.csv",
             "--summary-out", "b/summary.csv"],
            tmp_path,
        )
        ref = tmp_path / "ref"
        assert (tmp_path / "a" / "jobs.csv").read_bytes() == (
            ref / "replay_jobs.csv"
        ).read_bytes()
        assert (tmp_path / "b" / "summary.csv").read_bytes() == (
            ref / "replay.csv"
        ).read_bytes()
        assert not (tmp_path / "a" / "jobs.csv.manifest.json").exists()
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_limit_keeps_the_first_jobs(self, tmp_path):
        run_cli([*SMALL, "--results-dir", "out", "--limit", "4"], tmp_path)
        jobs = (tmp_path / "out" / "replay_jobs.csv").read_bytes()
        assert jobs.count(b"\r\n") == 5  # header + 4 job rows


class TestCrashResume:
    @pytest.mark.slow
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path):
        """Kill the replay right after its second committed chunk, then
        resume: final jobs CSV and aggregated summary are byte-identical
        to an uninterrupted run of the same seed."""
        args = [*SMALL, "--results-dir", "out"]

        # uninterrupted reference (separate directory, separate cache)
        run_cli([*SMALL, "--results-dir", "ref"], tmp_path)

        crashed = run_cli(
            args, tmp_path, check=False, driver=CRASH_AFTER_2_COMMITS
        )
        assert crashed.returncode == -signal.SIGKILL
        out = tmp_path / "out"
        assert (out / "replay_jobs.csv.manifest.json").exists()
        assert not (out / "replay.csv").exists()  # died before summary

        run_cli([*args, "--resume"], tmp_path)

        ref = tmp_path / "ref"
        assert (out / "replay_jobs.csv").read_bytes() == (
            ref / "replay_jobs.csv"
        ).read_bytes()
        assert (out / "replay.csv").read_bytes() == (
            ref / "replay.csv"
        ).read_bytes()
