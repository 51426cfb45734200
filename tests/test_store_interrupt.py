"""Checkpoint durability under interrupts.

Three escalating failure shapes:

* ``KeyboardInterrupt`` mid-campaign — the executor's flush-on-every-
  exit-path guarantee must persist the completed prefix;
* SIGTERM mid-campaign (converted to ``KeyboardInterrupt`` the way the
  service's job children convert it) — same guarantee, across a real
  process boundary;
* a hard kill **inside** a flush (``REPRO_CHAOS_KILL_FLUSH``), after
  the new rows are inserted but before they are committed — the
  previous durable state must survive untouched, via transaction
  rollback.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.fi.executor import (
    CampaignConfig,
    CampaignExecutor,
    CheckpointPolicy,
)
from repro.fi.store import SqliteResultStore

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

#: a checkpoint path names a database whatever its suffix, a legacy
#: ``.json`` name included
PATHS = [
    pytest.param("results.db", id="sqlite"),
    pytest.param("cp.json", id="json-suffix"),
]


def _completed(path, n_tasks=6):
    with SqliteResultStore(path) as store:
        store.open_campaign("unit", "fp", n_tasks)
        return store.completed_indices()


def _run_child(code, cwd, **env):
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestInterruptFlushesCheckpoint:
    @pytest.mark.parametrize("filename", PATHS)
    def test_keyboard_interrupt_persists_prefix(self, tmp_path, filename):
        path = str(tmp_path / filename)
        config = CampaignConfig(
            checkpoint=CheckpointPolicy(path=path, every=100)
        )

        def runner(index):
            if index == 3:
                raise KeyboardInterrupt
            return index

        executor = CampaignExecutor(config, campaign="unit")
        with pytest.raises(KeyboardInterrupt):
            executor.run_tasks(runner, 6, "fp")
        # every=100 means only the exit-path flush can have persisted
        # these
        assert _completed(path) == {0, 1, 2}

    @pytest.mark.parametrize("filename", PATHS)
    def test_resume_after_interrupt_completes(self, tmp_path, filename):
        path = str(tmp_path / filename)
        config = CampaignConfig(checkpoint=CheckpointPolicy(path=path))

        def runner(index):
            if index == 3:
                raise KeyboardInterrupt
            return index

        executor = CampaignExecutor(config, campaign="unit")
        with pytest.raises(KeyboardInterrupt):
            executor.run_tasks(runner, 6, "fp")
        resumed = CampaignExecutor(config, campaign="unit")
        assert resumed.run_tasks(lambda i: i, 6, "fp") == list(range(6))
        assert resumed.telemetry.resumed_runs == 3

    @pytest.mark.parametrize("filename", PATHS)
    def test_sigterm_persists_prefix(self, tmp_path, filename):
        """SIGTERM → KeyboardInterrupt → exit 75, the way the service
        runs campaigns; the completed prefix must be on disk."""
        path = str(tmp_path / filename)
        child = _run_child(
            f"""
            import os, signal
            from repro.fi.executor import (
                CampaignConfig, CampaignExecutor, CheckpointPolicy,
            )

            def to_interrupt(signum, frame):
                raise KeyboardInterrupt

            signal.signal(signal.SIGTERM, to_interrupt)

            def runner(index):
                if index == 3:
                    os.kill(os.getpid(), signal.SIGTERM)
                return index

            config = CampaignConfig(
                checkpoint=CheckpointPolicy(path={path!r}, every=100)
            )
            try:
                CampaignExecutor(config, campaign="unit").run_tasks(
                    runner, 6, "fp"
                )
            except KeyboardInterrupt:
                raise SystemExit(75)
            raise SystemExit(0)
            """,
            str(tmp_path),
        )
        assert child.returncode == 75, child.stderr
        assert _completed(path) == {0, 1, 2}


_FLUSH_KILL_CHILD = """
from repro.fi.store import SqliteResultStore

with SqliteResultStore({path!r}) as store:
    store.open_campaign("unit", "fp", 6)
    store.put_record(0, {{"value": 0}})
    store.put_record(1, {{"value": 1}})
    store.flush()          # flush 1: durable
    store.put_record(2, {{"value": 2}})
    store.put_record(3, {{"value": 3}})
    store.flush()          # flush 2: killed mid-transaction
raise SystemExit(1)        # unreachable when the chaos hook fires
"""


class TestKillMidFlush:
    """``REPRO_CHAOS_KILL_FLUSH=2`` hard-exits inside the second
    flush — after staging, before durability."""

    def _kill_second_flush(self, tmp_path, path):
        child = _run_child(
            _FLUSH_KILL_CHILD.format(path=path),
            str(tmp_path),
            REPRO_CHAOS_KILL_FLUSH="2",
        )
        assert child.returncode == 137, child.stderr

    def test_sqlite_rolls_back_to_previous_commit(self, tmp_path):
        path = str(tmp_path / "results.db")
        self._kill_second_flush(tmp_path, path)
        # the kill landed after the inserts, before the commit: sqlite
        # rolls the open transaction back on the next connection
        assert _completed(path) == {0, 1}

    def test_sqlite_restages_on_interrupted_flush(
        self, tmp_path, monkeypatch
    ):
        """An in-process interrupt mid-flush must not lose the staged
        records: they re-enter the next flush."""
        path = str(tmp_path / "results.db")
        with SqliteResultStore(path) as store:
            store.open_campaign("unit", "fp", 4)
            store.put_record(0, {"value": 0})

            def boom(*args, **kwargs):
                raise KeyboardInterrupt

            monkeypatch.setattr(store, "_flush_with_busy_retry", boom)
            with pytest.raises(KeyboardInterrupt):
                store.flush()
            monkeypatch.undo()
            assert store.flush()  # the restaged record goes through
        assert _completed(path, 4) == {0}
