"""Tests for the resumable on-disk results store (repro.experiments.store).

The load-bearing guarantee mirrors the executor's: a sweep resumed from a
store — even one truncated mid-write by a kill — produces rows and fits
byte-identical to an uninterrupted run, for every ``jobs`` value, with the
recorded tasks verifiably never re-executed.
"""

from __future__ import annotations

import json
import shutil
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.executor import plan_sweep_tasks
from repro.experiments.harness import MISRunResult, run_mis
from repro.experiments.store import (CODE_SCHEMA_VERSION, ResultStore,
                                     load_sweep_result, task_key)
from repro.experiments.sweeps import MetricAccumulator, run_sweep
from repro.graphs.generators import by_name

GRID = dict(algorithms=["luby", "vt_mis"], sizes=[16, 32],
            families=("gnp",), repetitions=2, seed=99)
GRID_TASKS = 2 * 2 * 1 * 2


def _store_lines(path):
    return path.read_text(encoding="utf-8").splitlines(True)


def _truncated_copy(full_path, partial_path, keep_results):
    """Simulate a kill: header + *keep_results* records + a torn final line."""
    lines = _store_lines(full_path)
    kept = lines[:1 + keep_results]
    torn = lines[1 + keep_results][: len(lines[1 + keep_results]) // 2]
    partial_path.write_text("".join(kept) + torn, encoding="utf-8")


class TestTaskKey:
    def test_key_is_stable_and_spec_sensitive(self):
        tasks = plan_sweep_tasks(**GRID)
        keys = [task_key(task) for task in tasks]
        assert keys == [task_key(task) for task in tasks]
        assert len(set(keys)) == len(keys)

    def test_key_covers_schema_version(self):
        task = plan_sweep_tasks(**GRID)[0]
        assert task_key(task) != task_key(task,
                                          schema_version=CODE_SCHEMA_VERSION + 1)

    def test_key_covers_params(self):
        base = plan_sweep_tasks(algorithms=["luby"], sizes=[16],
                                repetitions=1, seed=1)[0]
        tuned = plan_sweep_tasks(
            algorithms=["luby"], sizes=[16], repetitions=1, seed=1,
            algorithm_params={"luby": {"max_iterations": 512}})[0]
        assert task_key(base) != task_key(tuned)


class TestRecordRoundTrip:
    def test_result_record_round_trips_through_json(self):
        result = run_mis(by_name("gnp", 24, seed=7), algorithm="luby", seed=8,
                         collect_raw=False)
        record = json.loads(json.dumps(result.to_record()))
        restored = MISRunResult.from_record(record)
        assert restored.mis == result.mis
        assert restored.metrics == result.metrics
        assert restored.summary() == result.summary()

    def test_full_metrics_compact_on_the_way_to_disk(self):
        result = run_mis(by_name("gnp", 24, seed=7), algorithm="luby", seed=8)
        record = result.to_record()
        restored = MISRunResult.from_record(record)
        assert restored.metrics == result.compact().metrics
        assert restored.raw is None

    def test_node_averaged_awake_precision_survives(self):
        result = run_mis(by_name("gnp", 24, seed=7), algorithm="luby", seed=8,
                         collect_raw=False)
        record = json.loads(json.dumps(result.to_record()))
        assert (record["metrics"]["node_averaged_awake"]
                == result.metrics.node_averaged_awake)


class TestMetricAccumulator:
    def test_matches_list_based_summary(self):
        from repro.analysis.stats import summarize

        values = [3, 1, 4, 1, 5, 9, 2.5]
        acc = MetricAccumulator()
        for value in values:
            acc.add(value)
        reference = summarize(values)
        assert acc.count == reference.count
        assert acc.mean == reference.mean
        assert acc.minimum == reference.minimum
        assert acc.maximum == reference.maximum

    def test_empty_mean_is_zero(self):
        assert MetricAccumulator().mean == 0.0


class TestStoreBasics:
    def test_sweep_persists_every_task(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, store=ResultStore(path))
        store = ResultStore(path)
        assert len(store) == GRID_TASKS
        assert store.completed_keys() == {task_key(t)
                                          for t in plan_sweep_tasks(**GRID)}
        header = store.header()
        assert header["schema"] == CODE_SCHEMA_VERSION
        assert header["sweep"]["algorithms"] == ["luby", "vt_mis"]

    def test_store_run_rows_match_plain_run(self, tmp_path):
        plain = run_sweep(**GRID)
        stored = run_sweep(**GRID, keep_runs=False,
                           store=ResultStore(tmp_path / "out.jsonl"))
        assert repr(stored.rows()) == repr(plain.rows())
        assert stored.fits("awake_max") == plain.fits("awake_max")

    def test_fresh_run_refuses_existing_store(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, store=ResultStore(path))
        with pytest.raises(ConfigurationError, match="resume"):
            run_sweep(**GRID, store=ResultStore(path))

    def test_resume_refuses_different_grid(self, tmp_path):
        path = tmp_path / "out.jsonl"
        run_sweep(**GRID, store=ResultStore(path))
        other = dict(GRID, seed=100)
        with pytest.raises(ConfigurationError, match="different sweep"):
            run_sweep(**other, store=ResultStore(path), resume=True)

    def test_headerless_file_rejected(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_text('{"kind": "result", "key": "x"}\n', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="no header"):
            run_sweep(**GRID, store=ResultStore(path))

    def test_torn_header_store_is_restarted_not_bricked(self, tmp_path):
        # A kill during the very first append leaves only a newline-free
        # prefix of the header record; the store must recover, not demand
        # manual deletion.
        path = tmp_path / "out.jsonl"
        path.write_bytes(b'{"kind":"header","sch')
        with pytest.warns(UserWarning) as captured:
            sweep = run_sweep(**GRID, store=ResultStore(path), resume=True)
        assert any("torn header" in str(w.message) for w in captured)
        assert repr(sweep.rows()) == repr(run_sweep(**GRID).rows())
        assert len(ResultStore(path)) == GRID_TASKS

    def test_arbitrary_file_is_never_modified(self, tmp_path):
        # A destructive truncation repair must not touch a file that merely
        # happened to be passed as the store path.
        path = tmp_path / "notes.txt"
        content = "line one\nimportant final line without newline"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ConfigurationError):
            run_sweep(**GRID, store=ResultStore(path))
        assert path.read_text(encoding="utf-8") == content
        with pytest.raises(ConfigurationError):
            run_sweep(**GRID, store=ResultStore(path), resume=True)
        assert path.read_text(encoding="utf-8") == content


class TestResume:
    def test_complete_store_executes_nothing(self, tmp_path):
        path = tmp_path / "out.jsonl"
        baseline = run_sweep(**GRID, store=ResultStore(path))
        executed = []
        resumed = run_sweep(**GRID, store=ResultStore(path), resume=True,
                            progress=lambda task, *rest: executed.append(task))
        assert executed == []
        assert repr(resumed.rows()) == repr(baseline.rows())

    def test_resume_after_kill_matches_uninterrupted_byte_for_byte(
            self, tmp_path):
        full_path = tmp_path / "full.jsonl"
        uninterrupted = run_sweep(**GRID, jobs=4, store=ResultStore(full_path))

        kept = 5
        partial_path = tmp_path / "killed.jsonl"
        _truncated_copy(full_path, partial_path, keep_results=kept)

        executed = []
        with pytest.warns(UserWarning, match="truncated"):
            resumed = run_sweep(
                **GRID, jobs=4, store=ResultStore(partial_path), resume=True,
                progress=lambda task, *rest: executed.append(task))

        # The execution-count hook proves the recorded tasks never re-ran:
        # only the missing grid points (including the torn record) executed.
        assert len(executed) == GRID_TASKS - kept
        kept_lines = _store_lines(partial_path)[1:1 + kept]
        recorded_keys = {json.loads(line)["key"] for line in kept_lines}
        assert all(task_key(t) not in recorded_keys for t in executed)

        assert repr(resumed.rows()) == repr(uninterrupted.rows())
        assert resumed.fits("awake_max") == uninterrupted.fits("awake_max")

        # After the resumed run the store is complete and reports cleanly.
        _, rebuilt = load_sweep_result(partial_path)
        assert repr(rebuilt.rows()) == repr(uninterrupted.rows())

    def test_jobs_1_and_jobs_4_resume_identically(self, tmp_path):
        full_path = tmp_path / "full.jsonl"
        baseline = run_sweep(**GRID, jobs=1, store=ResultStore(full_path))

        results = {}
        for jobs in (1, 4):
            partial = tmp_path / f"partial-{jobs}.jsonl"
            _truncated_copy(full_path, partial, keep_results=3)
            with pytest.warns(UserWarning):
                results[jobs] = run_sweep(**GRID, jobs=jobs,
                                          store=ResultStore(partial),
                                          resume=True)
        assert repr(results[1].rows()) == repr(baseline.rows())
        assert repr(results[4].rows()) == repr(results[1].rows())
        assert results[4].fits("awake_max") == results[1].fits("awake_max")


class TestCorruption:
    def test_truncated_trailing_line_skipped_with_warning(self, tmp_path):
        full_path = tmp_path / "full.jsonl"
        run_sweep(**GRID, store=ResultStore(full_path))
        partial = tmp_path / "torn.jsonl"
        _truncated_copy(full_path, partial, keep_results=4)

        store = ResultStore(partial)
        with pytest.warns(UserWarning, match="truncated"):
            assert len(store.completed_keys()) == 4

    def test_mid_file_corruption_is_an_error(self, tmp_path):
        full_path = tmp_path / "full.jsonl"
        run_sweep(**GRID, store=ResultStore(full_path))
        lines = _store_lines(full_path)
        lines[2] = lines[2][:10] + "\n"  # damage a record that has successors
        damaged = tmp_path / "damaged.jsonl"
        damaged.write_text("".join(lines), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="corrupt record"):
            ResultStore(damaged).completed_keys()


class TestReport:
    def test_load_sweep_result_matches_live_rows(self, tmp_path):
        path = tmp_path / "out.jsonl"
        live = run_sweep(**GRID, jobs=4, keep_runs=False,
                         store=ResultStore(path))
        header, rebuilt = load_sweep_result(path)
        assert header["sweep"]["sizes"] == [16, 32]
        assert repr(rebuilt.rows()) == repr(live.rows())
        assert rebuilt.fits("awake_max") == live.fits("awake_max")
        _, from_store = load_sweep_result(ResultStore(path))
        assert repr(from_store.rows()) == repr(live.rows())

    def test_missing_store_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="results store"):
            load_sweep_result(tmp_path / "nope.jsonl")

    def test_directory_is_not_a_store(self, tmp_path):
        # A store is one file; a directory must not reach open().
        with pytest.raises(ConfigurationError, match="is a directory"):
            ResultStore(tmp_path)
        with pytest.raises(ConfigurationError, match="is a directory"):
            load_sweep_result(tmp_path)
        assert list(tmp_path.iterdir()) == []


#: A store written by an earlier version of this code with
#: ``repro-mis sweep --algorithms luby vt_mis --sizes 16 24 --families gnp
#: --repetitions 2 --seed 3 --output store_schema1.jsonl``.  The current
#: code must read and resume it as it stands.  A CODE_SCHEMA_VERSION bump
#: invalidates it by design; rewrite it with that command then.
LEGACY_STORE = Path(__file__).parent / "data" / "store_schema1.jsonl"
LEGACY_GRID = dict(algorithms=["luby", "vt_mis"], sizes=[16, 24],
                   families=("gnp",), repetitions=2, seed=3)
LEGACY_TASKS = 2 * 2 * 1 * 2


class TestStoreFromEarlierVersion:
    def test_keys_match_the_current_task_key(self):
        store = ResultStore(LEGACY_STORE)
        assert store.header()["schema"] == CODE_SCHEMA_VERSION
        assert store.completed_keys() == {
            task_key(task) for task in plan_sweep_tasks(**LEGACY_GRID)}

    def test_report_rows_match_a_fresh_sweep(self):
        fresh = run_sweep(**LEGACY_GRID, keep_runs=False)
        _, rebuilt = load_sweep_result(LEGACY_STORE)
        assert repr(rebuilt.rows()) == repr(fresh.rows())
        assert rebuilt.fits("awake_max") == fresh.fits("awake_max")

    def test_resume_replays_every_record_and_writes_nothing(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        shutil.copyfile(LEGACY_STORE, path)
        executed = []
        resumed = run_sweep(**LEGACY_GRID, keep_runs=False,
                            store=ResultStore(path), resume=True,
                            progress=lambda task, *_: executed.append(task))
        assert executed == []
        assert path.read_bytes() == LEGACY_STORE.read_bytes()
        assert repr(resumed.rows()) == repr(
            run_sweep(**LEGACY_GRID, keep_runs=False).rows())

    @pytest.mark.parametrize("kept", range(LEGACY_TASKS))
    def test_resume_after_a_torn_tail(self, tmp_path, kept):
        path = tmp_path / "legacy.jsonl"
        _truncated_copy(LEGACY_STORE, path, keep_results=kept)
        executed = []
        with pytest.warns(UserWarning, match="truncated"):
            resumed = run_sweep(
                **LEGACY_GRID, keep_runs=False, store=ResultStore(path),
                resume=True,
                progress=lambda task, *_: executed.append(task))
        assert len(executed) == LEGACY_TASKS - kept
        assert repr(resumed.rows()) == repr(
            run_sweep(**LEGACY_GRID, keep_runs=False).rows())
        assert len(ResultStore(path)) == LEGACY_TASKS


# ------------------------------------------------------------------------- #
# Kill-point fuzzing: every byte offset a crash could truncate the store at
# must land in {clean resume, torn-line repair, hard corruption error} —
# never silent data loss.
# ------------------------------------------------------------------------- #
FUZZ_GRID = dict(algorithms=["luby"], sizes=[16], families=("gnp",),
                 repetitions=2, seed=5)
FUZZ_TASKS = 2


@pytest.fixture(scope="module")
def fuzz_reference(tmp_path_factory):
    """One completed tiny sweep: its store bytes and expected rows."""
    tmp = tmp_path_factory.mktemp("fuzz-ref")
    path = tmp / "ref.jsonl"
    sweep = run_sweep(**FUZZ_GRID, keep_runs=False, store=ResultStore(path))
    return {
        "rows": repr(sweep.rows()),
        "bytes": path.read_bytes(),
        "all_keys": {task_key(t) for t in plan_sweep_tasks(**FUZZ_GRID)},
    }


def _intact_result_keys(blob: bytes):
    """Keys of result records a reader must still honour after truncation:
    complete lines only (the torn tail, if any, is legitimately re-run)."""
    keys = set()
    for line in blob.split(b"\n")[:-1]:  # a line without \n is torn
        record = json.loads(line)
        if record.get("kind") == "result":
            keys.add(record["key"])
    return keys


def _resume_and_check(store, reference, expected_intact):
    """Resume from a damaged store; assert no re-execution of intact
    records, no silent loss, and byte-identical rows."""
    executed = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # torn-tail repairs are expected
        resumed = run_sweep(**FUZZ_GRID, keep_runs=False, store=store,
                            resume=True,
                            progress=lambda task, *rest: executed.append(task))
    executed_keys = {task_key(t) for t in executed}
    # Exactly the non-surviving tasks re-ran: nothing recorded was lost
    # (silent loss) and nothing recorded was recomputed (wasted work).
    assert executed_keys == reference["all_keys"] - expected_intact
    assert repr(resumed.rows()) == reference["rows"]


class TestKillPointFuzz:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_truncation_at_any_offset_resumes_byte_identically(
            self, data, fuzz_reference, tmp_path):
        """A kill can truncate the file at *any* byte offset.  Whatever
        survives must resume to byte-identical rows, with every complete
        record honoured and only the rest re-executed — including the
        degenerate cuts (empty file, torn header)."""
        blob = fuzz_reference["bytes"]
        cut = data.draw(st.integers(min_value=0, max_value=len(blob)))
        path = tmp_path / f"cut-{cut}.jsonl"
        path.write_bytes(blob[:cut])
        _resume_and_check(ResultStore(path), fuzz_reference,
                          _intact_result_keys(blob[:cut]))

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mid_file_garbage_is_a_hard_error_never_silent_loss(
            self, data, fuzz_reference, tmp_path):
        """Damage that is *not* an interrupted append (garbage on a line
        with intact records after it) must be a hard error — resuming
        over it could silently drop the buried records."""
        blob = fuzz_reference["bytes"]
        lines = blob.split(b"\n")[:-1]
        victim = data.draw(st.integers(0, len(lines) - 2))
        junk = data.draw(st.sampled_from([b"garbage", b"{\"kind\":", b"\x00\xff"]))
        damaged = [*lines[:victim], junk, *lines[victim + 1:]]
        path = tmp_path / "damaged.jsonl"
        path.write_bytes(b"\n".join(damaged) + b"\n")
        before = path.read_bytes()
        with pytest.raises(ConfigurationError):
            run_sweep(**FUZZ_GRID, keep_runs=False, store=ResultStore(path),
                      resume=True)
        # A refused store is never modified.
        assert path.read_bytes() == before


class TestKeepRuns:
    def test_streaming_cells_drop_raw_runs_but_keep_aggregates(self):
        lean = run_sweep(**GRID, keep_runs=False)
        fat = run_sweep(**GRID, keep_runs=True)
        assert all(cell.runs == [] for cell in lean.cells)
        assert all(len(cell.runs) == 2 for cell in fat.cells)
        assert repr(lean.rows()) == repr(fat.rows())
        assert all(cell.run_count == 2 for cell in lean.cells)

    def test_per_run_accessors_raise_when_runs_were_dropped(self):
        lean = run_sweep(**GRID, keep_runs=False)
        cell = lean.cells[0]
        with pytest.raises(ConfigurationError, match="keep_runs"):
            cell.awake_complexities
        with pytest.raises(ConfigurationError, match="keep_runs"):
            cell.round_complexities
        fat = run_sweep(**GRID, keep_runs=True)
        assert len(fat.cells[0].awake_complexities) == 2
