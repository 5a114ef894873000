"""Black-box predictor probing.

A predictor is anything that maps a batch of original-feature-space rows to
one numeric output per row. Two transports are provided:

* in-process: any Python callable taking an (n, m) array and returning n
  numbers (or an (n, c) matrix of per-class probabilities, to be narrowed
  with :func:`select_class`);
* subprocess: a long-lived child process speaking JSON Lines over
  stdin/stdout. Each request is one line ``{"inputs": [[f64, ...], ...]}``,
  each response one line ``{"outputs": [f64, ...]}`` with exactly one output
  per input row, UTF-8 encoded and LF-terminated. A response must be fully
  written before the next request is sent, and any stdout output that is
  not the one response to a sent request fails the transport. Requests are
  compact JSON (whitespace is not part of the protocol) whose numbers are
  the shortest decimals that parse back to the same doubles, so the child
  sees every input bit for bit.

:func:`label_blocks` labels a stream of (tag, rows) blocks, such as the
seeds of a seed block, in shared requests of ``batch_limit`` rows and
yields (tag, labels) in block order, so one request may carry rows of
several blocks. :func:`probe` is its one-block case, so one probe call may
translate into several requests on the same transport.
"""

from __future__ import annotations

import json
import os
import selectors
import shlex
import subprocess
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import ConfigError, ContractViolationError, ProbeError

PREDICTOR_CMD_ENV = "BAYLIME_PREDICTOR_CMD"
MAX_TIMEOUT = (2**31 - 1) / 1000  # s: a selector waits at most 2**31 - 1 ms
STDERR_TAIL = 8192  # bytes of the child's stderr kept for error reports


def _check_batch_limit(batch_limit: int) -> None:
    if batch_limit < 1:
        raise ConfigError("batch_limit must be at least 1")


@dataclass
class PredictorHandle:
    """Handle on a black-box model plus its probing policy.

    A handle is used by one explanation run at a time; concurrent runs must
    use separate handles. ``close()`` shuts down the transport if it owns
    one (subprocess handles do, in-process handles do not).
    """

    predict_fn: Callable[[np.ndarray], np.ndarray]
    batch_limit: int = 1024

    def __post_init__(self):
        _check_batch_limit(self.batch_limit)

    @classmethod
    def in_process(cls, fn: Callable[[np.ndarray], np.ndarray], *,
                   batch_limit: int = 1024) -> "PredictorHandle":
        return cls(fn, batch_limit=batch_limit)

    @classmethod
    def spawn(cls, command: str | list[str], *, batch_limit: int = 1024,
              timeout: float = 60.0) -> "PredictorHandle":
        """Start a JSON-lines predictor subprocess and wrap it in a handle.

        Both settings are checked before the child starts.
        """
        _check_batch_limit(batch_limit)
        transport = SubprocessPredictor(command, timeout=timeout)
        return cls(transport, batch_limit=batch_limit)

    def predict(self, rows: np.ndarray) -> np.ndarray:
        """One request: the model's outputs, checked to be one per row."""
        raw = self.predict_fn(rows)
        out = np.asarray(raw, dtype=float)
        if out.ndim == 2 and out.shape[1] == 1:
            out = out[:, 0]
        if out.ndim != 1:
            raise ContractViolationError(
                f"predictor returned shape {out.shape}; expected one value "
                f"per row (use select_class for per-class matrices)",
                payload=raw,
            )
        if out.shape[0] != rows.shape[0]:
            raise ContractViolationError(
                f"predictor returned {out.shape[0]} outputs for "
                f"{rows.shape[0]} rows",
                payload=raw,
            )
        return out

    def close(self) -> None:
        closer = getattr(self.predict_fn, "close", None)
        if closer is not None:
            closer()

    def __enter__(self) -> "PredictorHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def probe(handle: PredictorHandle, rows: np.ndarray) -> np.ndarray:
    """Query the model with perturbed rows and return one output per row.

    Rows are submitted in input order, split transparently into chunks of at
    most ``handle.batch_limit`` rows, so the model sees exactly
    ceil(n / batch_limit) calls. This is the one-block case of
    :func:`label_blocks`.

    Raises:
        ProbeError: the transport failed (exit, malformed response, timeout).
        ContractViolationError: the model returned the wrong number of
            outputs, a shape that cannot be narrowed to one value per row,
            or a non-finite prediction (the offending row index is named).
    """
    ((_, labels),) = label_blocks(handle, [(None, rows)])
    return labels


def label_blocks(handle: PredictorHandle,
                 blocks: Iterable[tuple[object, np.ndarray]],
                 ) -> Iterator[tuple[object, np.ndarray]]:
    """Label a stream of (tag, rows) blocks in shared requests.

    Rows go out in block order, in requests of ``batch_limit`` rows, so a
    block may share requests with the blocks before and after it and the
    model sees ceil(total rows / batch_limit) calls for all blocks
    together. Yields (tag, labels) for each block once its last row is
    answered, in block order. A block's rows are checked as :func:`probe`
    checks them, and a non-finite prediction is reported by its row index
    within its block.

    Only the rows still waiting for a request are held: the unsent tail of
    a partly sent block is copied, and a block's matrix is dropped before
    the blocks its requests completed are yielded. The next block is taken
    from ``blocks`` only when those are consumed.
    """
    limit = handle.batch_limit
    # Row slices of the next request, and how many rows they hold.
    waiting: list[np.ndarray] = []
    count = 0
    # Per block not yet fully labelled: [tag, rows without labels, labels].
    pending: deque[list] = deque()
    done: deque[tuple[object, np.ndarray]] = deque()
    for tag, rows in blocks:
        matrix = np.asarray(rows, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] == 0:
            raise ConfigError("probe needs a non-empty n-by-m matrix")
        if not np.all(np.isfinite(matrix)):
            raise ConfigError("probe rows must be finite")
        pending.append([tag, matrix.shape[0], []])
        # From here only the queues hold the block, so it dies once used.
        del tag, rows
        start = 0
        while start < matrix.shape[0]:
            stop = min(start + limit - count, matrix.shape[0])
            waiting.append(matrix[start:stop])
            count += stop - start
            if count == limit:
                done += _answer(handle, waiting, pending)
                count = 0
            elif start:
                waiting[-1] = waiting[-1].copy()
            start = stop
        del matrix
        while done:
            yield done.popleft()
    if count:
        yield from _answer(handle, waiting, pending)


def _answer(handle: PredictorHandle, waiting: list[np.ndarray],
            pending: deque[list]) -> list[tuple[object, np.ndarray]]:
    """Send and clear the waiting row slices as one request.

    The outputs go to the pending blocks in order; returns (tag, labels)
    of the blocks the request completed.
    """
    chunk = waiting[0] if len(waiting) == 1 else np.concatenate(waiting)
    waiting.clear()
    out = handle.predict(chunk)
    done = []
    start = 0
    while start < out.shape[0]:
        block = pending[0]
        stop = min(start + block[1], out.shape[0])
        block[2].append(out[start:stop])
        block[1] -= stop - start
        start = stop
        if block[1] == 0:
            pending.popleft()
            labels = np.concatenate(block[2])
            bad = np.flatnonzero(~np.isfinite(labels))
            if bad.size:
                raise ContractViolationError(
                    f"non-finite prediction at row {int(bad[0])}",
                    payload=labels)
            done.append((block[0], labels))
    return done


def select_class(fn: Callable[[np.ndarray], np.ndarray],
                 class_index: int) -> Callable[[np.ndarray], np.ndarray]:
    """Narrow a matrix-valued predictor to the probability of one class."""

    def narrowed(rows: np.ndarray) -> np.ndarray:
        out = np.asarray(fn(rows), dtype=float)
        if out.ndim != 2:
            raise ContractViolationError(
                f"class selection needs an (n, c) prediction matrix, got "
                f"shape {out.shape}",
                payload=out,
            )
        if not 0 <= class_index < out.shape[1]:
            raise ConfigError(
                f"target class {class_index} out of range for "
                f"{out.shape[1]} predictor outputs"
            )
        return out[:, class_index]

    return narrowed


def with_class(handle: PredictorHandle, class_index: int) -> PredictorHandle:
    """Derive a handle that extracts one class column from each prediction."""
    return PredictorHandle(select_class(handle.predict_fn, class_index),
                           batch_limit=handle.batch_limit)


class SubprocessPredictor:
    """JSON-lines transport to a long-lived predictor child process.

    The process is spawned once and reused for every chunk of an
    explanation run, which amortizes model-load cost. Not thread-safe: each
    request is one ``selectors`` loop on POSIX pipes, under one deadline.

    The transport fails closed. Once a request times out, gets a malformed
    response or one with the wrong number of outputs or a non-numeric
    output (both raised as :class:`ContractViolationError`), finds the child
    gone, or meets output that answers no request, the child is killed and
    every later call raises :class:`ProbeError`: a late answer to an
    abandoned request would otherwise be read as the answer to the next one.
    """

    def __init__(self, command: str | list[str], *, timeout: float = 60.0):
        if isinstance(command, str):
            try:
                command = shlex.split(command)
            except ValueError as exc:
                raise ConfigError(f"cannot parse predictor command "
                                  f"{command!r}: {exc}") from exc
        if not command:
            raise ConfigError("empty predictor command")
        if not 0 < timeout <= MAX_TIMEOUT:
            raise ConfigError(f"timeout must be positive and at most "
                              f"{MAX_TIMEOUT:g} s")
        self.command = list(command)
        self.timeout = float(timeout)
        self._broken: str | None = None
        # Imported here, not at module level, so that in-process runs do not
        # pay orjson's import time.
        import orjson
        self._dumps = orjson.dumps
        self._dump_option = (orjson.OPT_SERIALIZE_NUMPY
                             | orjson.OPT_APPEND_NEWLINE)
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
        except OSError as exc:
            raise ProbeError(f"could not start predictor command "
                             f"{self.command}: {exc}") from exc
        os.set_blocking(self._proc.stdin.fileno(), False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._proc.stdout, selectors.EVENT_READ)
        self._selector.register(self._proc.stderr, selectors.EVENT_READ)
        self._stderr_tail = bytearray()

    def _fail(self, message: str, payload=None,
              error: type[ProbeError] = ProbeError) -> ProbeError:
        """Mark the transport broken, kill the child, return the error."""
        self._broken = message
        if self._proc.poll() is None:
            self._proc.kill()
            self._proc.wait()
        return error(message, payload=payload)

    def _exchange(self, request: bytes) -> bytes:
        """Write a request and return its one response line by the deadline."""
        proc, selector = self._proc, self._selector
        deadline = time.monotonic() + self.timeout
        # The unwritten request bytes (None once the child closed its input)
        # and the response read so far.
        unsent, reply = memoryview(request), bytearray()
        selector.register(proc.stdin, selectors.EVENT_WRITE)
        wait = self.timeout
        while wait > 0 and selector.get_map():
            # Reads first: output that came before the request is seen first.
            ready = sorted(selector.select(wait),
                           key=lambda event: event[0].fileobj is proc.stdin)
            for key, _ in ready:
                if key.fileobj is proc.stdin:
                    try:
                        unsent = unsent[os.write(key.fd, unsent):]
                    except BrokenPipeError:  # its exit shows on stdout
                        unsent = None
                    if not unsent:
                        selector.unregister(proc.stdin)
                    continue
                data = os.read(key.fd, 1 << 16)
                if not data:
                    selector.unregister(key.fileobj)
                elif key.fileobj is proc.stderr:
                    self._stderr_tail += data
                    del self._stderr_tail[:-STDERR_TAIL]
                else:
                    reply += data
                    end = reply.find(b"\n", len(reply) - len(data)) + 1
                    if unsent is None or unsent or 0 < end < len(reply):
                        raise self._fail("predictor wrote output that answers "
                                         "no request", payload=bytes(reply))
                    if end:
                        return bytes(reply)
            wait = deadline - time.monotonic()
        # Out of time, or the child closed all its pipes: reap it if it ended.
        try:
            code = proc.wait(deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            raise self._fail(f"predictor response timed out after "
                             f"{self.timeout} s") from None
        raise self._fail(f"predictor process exited with code {code}",
                         payload=bytes(self._stderr_tail))

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        if self._broken is not None:
            raise ProbeError(f"predictor transport is unusable after an "
                             f"earlier failure: {self._broken}")
        # orjson serializes only C-contiguous arrays, straight from their
        # doubles; the request goes out as bytes.
        line = self._exchange(self._dumps(
            {"inputs": np.ascontiguousarray(rows, dtype=np.float64)},
            option=self._dump_option))
        try:
            message = json.loads(line)
            outputs = message["outputs"]
        except (ValueError, TypeError, KeyError) as exc:
            raise self._fail(f"malformed predictor response: {exc}",
                             payload=line) from exc
        # A count mismatch may mean the child answers another request, so
        # the transport is not used again.
        count = len(outputs) if isinstance(outputs, list) else None
        if count != len(rows):
            raise self._fail(
                f"predictor returned {count} outputs for {len(rows)} rows",
                payload=line, error=ContractViolationError)
        try:
            return np.asarray(outputs, dtype=float)
        except (TypeError, ValueError) as exc:
            raise self._fail(f"predictor returned non-numeric outputs: {exc}",
                             payload=line,
                             error=ContractViolationError) from exc

    def close(self) -> None:
        """End the child's input, drop its output and reap it; kill it if it
        runs on 5 s. A second call does nothing."""
        self._selector.close()
        try:
            self._proc.communicate(timeout=5.0)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            self._proc.stdout.close()
            self._proc.stderr.close()
