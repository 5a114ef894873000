"""Predictor probing: batching, contract checks, subprocess transport."""

from __future__ import annotations

import json
import select
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from baylime import blackbox
from baylime import (
    ConfigError,
    ContractViolationError,
    PredictorHandle,
    ProbeError,
    probe,
    select_class,
    with_class,
)

FIXTURE = str(Path(__file__).parent / "fixtures" / "jsonl_predictor.py")


def fixture_command(mode: str) -> list[str]:
    return [sys.executable, FIXTURE, mode]


class TestProbeInProcess:
    def test_outputs_in_row_order(self):
        handle = PredictorHandle.in_process(lambda rows: rows[:, 0] * 2.0)
        out = probe(handle, np.array([[1.0], [2.0], [3.0]]))
        assert out.tolist() == [2.0, 4.0, 6.0]

    def test_batches_split_at_limit(self):
        sizes = []

        def record(rows):
            sizes.append(rows.shape[0])
            return np.zeros(rows.shape[0])

        handle = PredictorHandle.in_process(record, batch_limit=30)
        probe(handle, np.zeros((100, 2)))
        assert sizes == [30, 30, 30, 10]

    def test_single_call_when_under_limit(self):
        calls = []
        handle = PredictorHandle.in_process(
            lambda rows: (calls.append(1), np.zeros(rows.shape[0]))[1])
        probe(handle, np.zeros((100, 3)))
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_output_does_not_depend_on_batch_limit(self, n, m, seed):
        rows = np.random.default_rng(seed).normal(size=(n, m))

        def model(chunk):
            return np.sin(chunk[:, 0]) + chunk[:, -1] ** 2

        want = probe(PredictorHandle.in_process(model, batch_limit=n + 1),
                     rows)
        for limit in range(1, n + 1):
            got = probe(PredictorHandle.in_process(model, batch_limit=limit),
                        rows)
            assert got.tobytes() == want.tobytes()

    def test_column_vector_output_accepted(self):
        handle = PredictorHandle.in_process(
            lambda rows: np.zeros((rows.shape[0], 1)))
        assert probe(handle, np.zeros((5, 2))).shape == (5,)

    def test_wrong_output_count(self):
        handle = PredictorHandle.in_process(
            lambda rows: np.zeros(rows.shape[0] - 1))
        with pytest.raises(ContractViolationError):
            probe(handle, np.zeros((4, 2)))

    def test_matrix_output_rejected_without_class_selection(self):
        handle = PredictorHandle.in_process(
            lambda rows: np.zeros((rows.shape[0], 3)))
        with pytest.raises(ContractViolationError):
            probe(handle, np.zeros((4, 2)))

    def test_non_finite_prediction_names_row(self):
        def bad(rows):
            out = np.ones(rows.shape[0])
            out[rows[:, 0] == 1.0] = np.nan
            return out

        rows = np.zeros((5, 1))
        rows[2, 0] = 1.0  # lands in the second chunk; index is global
        handle = PredictorHandle.in_process(bad, batch_limit=2)
        with pytest.raises(ContractViolationError, match="row 2"):
            probe(handle, rows)

    def test_rejects_bad_probe_input(self):
        handle = PredictorHandle.in_process(lambda rows: rows[:, 0])
        with pytest.raises(ConfigError):
            probe(handle, np.zeros((0, 2)))
        with pytest.raises(ConfigError, match="finite"):
            probe(handle, np.array([[0.0, 1.0], [np.nan, 2.0]]))

    def test_handle_validation(self):
        with pytest.raises(ConfigError):
            PredictorHandle.in_process(lambda rows: rows, batch_limit=0)


class TestLabelBlocks:
    @staticmethod
    def model(chunk):
        return np.sin(chunk[:, 0]) + chunk[:, -1] ** 2

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=6),
           st.integers(1, 3), st.integers(1, 25), st.integers(0, 2**32 - 1))
    def test_blocks_share_requests_in_order(self, sizes, m, limit, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.normal(size=(n, m)) for n in sizes]
        requests = []
        labelled = []

        def model(chunk):
            requests.append(chunk.copy())
            return self.model(chunk)

        def stream():
            for j, block in enumerate(blocks):
                # A block is yielded once its last row has been answered,
                # before the next block is taken.
                sent = sum(len(r) for r in requests)
                assert len(labelled) == sum(np.cumsum(sizes[:j]) <= sent)
                yield f"block {j}", block

        handle = PredictorHandle.in_process(model, batch_limit=limit)
        for tag, labels in blackbox.label_blocks(handle, stream()):
            labelled.append((tag, labels))
        assert len(requests) == -(-sum(sizes) // limit)
        assert all(len(r) == limit for r in requests[:-1])
        assert np.vstack(requests).tobytes() == np.vstack(blocks).tobytes()
        assert [tag for tag, _ in labelled] == [
            f"block {j}" for j in range(len(blocks))]
        for block, (_, got) in zip(blocks, labelled):
            assert got.tobytes() == self.model(block).tobytes()

    def test_non_finite_prediction_names_row_within_its_block(self):
        def bad(rows):
            out = np.ones(rows.shape[0])
            out[rows[:, 0] == 1.0] = np.nan
            return out

        second = np.zeros((3, 1))
        second[1, 0] = 1.0
        labelled = blackbox.label_blocks(
            PredictorHandle.in_process(bad, batch_limit=4),
            iter([("first", np.zeros((2, 1))), ("second", second)]))
        # The first request carries both blocks' rows but completes only
        # the first block.
        tag, labels = next(labelled)
        assert (tag, len(labels)) == ("first", 2)
        with pytest.raises(ContractViolationError, match="row 1"):
            next(labelled)


class TestClassSelection:
    @staticmethod
    def _matrix_fn(rows):
        return np.stack([rows[:, 0], 1.0 - rows[:, 0]], axis=1)

    def test_selects_column(self):
        narrowed = select_class(self._matrix_fn, 1)
        out = narrowed(np.array([[0.25], [0.75]]))
        np.testing.assert_allclose(out, [0.75, 0.25])

    def test_with_class_wraps_handle(self):
        handle = with_class(PredictorHandle.in_process(self._matrix_fn), 0)
        out = probe(handle, np.array([[0.25], [0.75]]))
        np.testing.assert_allclose(out, [0.25, 0.75])

    def test_out_of_range_class(self):
        narrowed = select_class(self._matrix_fn, 5)
        with pytest.raises(ConfigError):
            narrowed(np.array([[0.25]]))

    def test_vector_predictor_rejected(self):
        narrowed = select_class(lambda rows: rows[:, 0], 0)
        with pytest.raises(ContractViolationError):
            narrowed(np.array([[0.25]]))


class TestSubprocessPredictor:
    def test_bad_spawn_settings_start_no_child(self, monkeypatch):
        calls = []

        def popen(*args, **kwargs):
            calls.append(args)
            raise OSError("no child in this test")

        monkeypatch.setattr(blackbox.subprocess, "Popen", popen)
        with pytest.raises(ConfigError, match="batch_limit"):
            PredictorHandle.spawn(fixture_command("sum"), batch_limit=0)
        for timeout in (0.0, blackbox.MAX_TIMEOUT * 1.0001):
            with pytest.raises(ConfigError, match="timeout"):
                PredictorHandle.spawn(fixture_command("sum"), timeout=timeout)
        assert calls == []

    def test_round_trip(self):
        with PredictorHandle.spawn(fixture_command("sum")) as handle:
            out = probe(handle, np.array([[1.0, 2.0], [3.0, 4.0]]))
            assert out.tolist() == [3.0, 7.0]

    def test_multiple_requests_on_one_process(self):
        with PredictorHandle.spawn(fixture_command("sum"),
                                   batch_limit=2) as handle:
            out = probe(handle, np.arange(10.0).reshape(5, 2))
            assert out.tolist() == [1.0, 5.0, 9.0, 13.0, 17.0]

    def test_short_response_is_contract_violation(self):
        with PredictorHandle.spawn(fixture_command("short")) as handle:
            with pytest.raises(ContractViolationError):
                probe(handle, np.ones((3, 2)))
            # The child may be out of step with the requests: it is killed
            # and the handle stays unusable.
            with pytest.raises(ProbeError, match="unusable"):
                probe(handle, np.ones((3, 2)))
            assert handle.predict_fn._proc.poll() is not None

    def test_non_numeric_outputs_are_contract_violation(self):
        with PredictorHandle.spawn(fixture_command("text")) as handle:
            with pytest.raises(ContractViolationError, match="non-numeric"):
                probe(handle, np.ones((3, 2)))
            with pytest.raises(ProbeError, match="unusable"):
                probe(handle, np.ones((3, 2)))
            assert handle.predict_fn._proc.poll() is not None

    def test_every_double_reaches_the_child_exactly(self):
        # The echo child answers each row with its first value, so probing
        # the columns from j onwards returns column j as the child parsed
        # it. C-order, Fortran-order and column-strided inputs all go out.
        edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324,
                                 2.2250738585072014e-308, 1.7e308, -1.7e308,
                                 1.7976931348623157e308])
        values = st.one_of(edges, st.floats(allow_nan=False,
                                            allow_infinity=False))

        @settings(max_examples=40, deadline=None, derandomize=True,
                  database=None)
        @given(st.integers(4, 9), st.integers(1, 4), st.data())
        def check(handle, n, m, data):
            matrix = np.array(data.draw(st.lists(values, min_size=n * m,
                                                 max_size=n * m)),
                              dtype=float).reshape(n, m)
            wide = np.zeros((n, 2 * m))
            wide[:, ::2] = matrix
            for layout in (matrix, np.asfortranarray(matrix), wide[:, ::2]):
                for j in range(m):
                    got = probe(handle, layout[:, j:])
                    assert np.array_equal(got.view(np.uint64),
                                          matrix[:, j].view(np.uint64))

        with PredictorHandle.spawn(fixture_command("echo"),
                                   batch_limit=3) as handle:
            check(handle)

    def test_garbage_response(self):
        with PredictorHandle.spawn(fixture_command("garbage")) as handle:
            with pytest.raises(ProbeError, match="malformed"):
                probe(handle, np.ones((2, 2)))

    def test_early_exit_reported(self):
        # The code is named only once the child is reaped, on every spawn.
        for _ in range(10):
            with PredictorHandle.spawn(fixture_command("exit")) as handle:
                with pytest.raises(ProbeError, match="exited with code 3$"):
                    probe(handle, np.ones((2, 2)))

    def test_stderr_is_drained_into_a_bounded_tail(self):
        # The child writes 160 KiB to stderr before each read: more than the
        # pipe holds, so it answers only if the parent drains stderr while
        # it waits.
        with PredictorHandle.spawn(fixture_command("chatty")) as handle:
            assert probe(handle, np.ones((3, 2))).tolist() == [2.0] * 3
            with pytest.raises(ProbeError,
                               match="exited with code 4") as info:
                probe(handle, np.ones((3, 2)))
        tail = info.value.payload
        assert 0 < len(tail) <= blackbox.STDERR_TAIL
        assert tail.endswith(b"chatty line 02047 " + b"." * 61 + b"\n")

    def test_timeout(self):
        with PredictorHandle.spawn(fixture_command("sleep"),
                                   timeout=0.5) as handle:
            with pytest.raises(ProbeError, match="timed out"):
                probe(handle, np.ones((2, 2)))

    def test_timeout_covers_writing_the_request(self):
        # The request is more than a pipe holds, and the child never reads
        # it, so the write itself has to give up at the deadline.
        rows = np.random.default_rng(0).random((1000, 8))
        assert len(json.dumps({"inputs": rows.tolist()})) > 1 << 16
        with PredictorHandle.spawn(fixture_command("deaf"),
                                   timeout=0.5) as handle:
            start = time.monotonic()
            with pytest.raises(ProbeError, match="timed out"):
                probe(handle, rows)
            assert time.monotonic() - start < 2.0
            assert handle.predict_fn._proc.poll() is not None

    def test_extra_answer_lines_fail_the_handle(self):
        # Each answer comes twice: the copy must never be taken as the
        # answer to the next request.
        with PredictorHandle.spawn(fixture_command("twice")) as handle:
            with pytest.raises(ProbeError, match="answers no request"):
                probe(handle, np.array([[1.0, 2.0]]))
            with pytest.raises(ProbeError, match="unusable"):
                probe(handle, np.array([[10.0, 20.0]]))
            assert handle.predict_fn._proc.poll() is not None

    def test_output_before_the_request_fails_the_handle(self):
        with PredictorHandle.spawn(fixture_command("eager")) as handle:
            # Wait until the unrequested answer is in the pipe.
            ready, _, _ = select.select([handle.predict_fn._proc.stdout],
                                        [], [], 10.0)
            assert ready
            with pytest.raises(ProbeError, match="answers no request"):
                probe(handle, np.array([[1.0, 2.0]]))
            assert handle.predict_fn._proc.poll() is not None

    def test_longest_timeout_is_one_selector_wait(self):
        with PredictorHandle.spawn(fixture_command("sum"),
                                   timeout=blackbox.MAX_TIMEOUT) as handle:
            assert probe(handle, np.ones((2, 2))).tolist() == [2.0, 2.0]

    def test_late_answer_never_reaches_a_later_probe(self):
        with PredictorHandle.spawn(fixture_command("late"),
                                   timeout=0.2) as handle:
            with pytest.raises(ProbeError, match="timed out"):
                probe(handle, np.array([[1.0], [2.0]]))
            # Long enough for the abandoned request's answer to arrive, had
            # the child been left running.
            time.sleep(1.2)
            with pytest.raises(ProbeError, match="unusable"):
                probe(handle, np.array([[7.0], [8.0]]))
            assert handle.predict_fn._proc.poll() is not None

    def test_close_reaps_the_child_once(self):
        threads = threading.active_count()
        handle = PredictorHandle.spawn(fixture_command("sum"))
        assert threading.active_count() == threads
        probe(handle, np.ones((3, 2)))
        assert threading.active_count() == threads
        transport = handle.predict_fn
        handle.close()
        assert threading.active_count() == threads
        assert transport._proc.returncode == 0
        proc = transport._proc
        assert proc.stdin.closed and proc.stdout.closed and proc.stderr.closed
        handle.close()
        assert transport._proc.returncode == 0

    def test_unknown_command(self):
        with pytest.raises(ProbeError):
            PredictorHandle.spawn(["/no/such/binary/anywhere"])

    def test_unparsable_command_is_config_error(self):
        with pytest.raises(ConfigError, match="No closing quotation"):
            PredictorHandle.spawn('python3 "x')
