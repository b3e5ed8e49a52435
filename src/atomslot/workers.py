"""A small pool of persistent worker processes for independent tasks.

``run(count, fn, shared, tasks)`` computes ``fn(*task, *shared)`` for every
task in ``count`` worker processes and yields each result as it arrives.
The learning-rate grid (``models._fit``) uses it to train its candidates
side by side.

Each worker is a fresh interpreter that imports this package from the
directory the parent imported it from, and nothing else: never the
caller's ``__main__``, so an unguarded script works.  Workers start with
one BLAS thread (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` set to 1): a second BLAS thread only spin-waits at
these matrix sizes and would take the core another worker needs.  They
talk to the parent over their standard input and output, one pickle per
message: ``("setup", data)`` carries ``fn`` and ``shared``, pickled once per
``run``; ``("task", args)`` follows, one at a time; and each task's reply
is ``(True, result)`` or ``(False, (exception, traceback_text))``.

The pool starts on first use, grows to the largest ``count`` asked for,
and lives until the interpreter exits.  Workers exit on end of input.  An
exception in a task is re-raised in the parent with its type, the worker's
traceback as its cause.  A worker that dies raises ``WorkerLost``, and the
next ``run`` starts a new pool.  The pool is not shared across threads.
"""

from __future__ import annotations

import atexit
import os
import pickle
import selectors
import signal
import subprocess
import sys
import traceback

_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the directory holding the package, first on each worker's import path
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SERVE = (
    f"import sys; sys.path.insert(0, {_ROOT!r}); "
    "from atomslot.workers import serve; serve()"
)

_PICKLE = pickle.HIGHEST_PROTOCOL


class WorkerLost(RuntimeError):
    """A worker process exited or closed its pipe before it answered."""


class _RemoteTraceback(Exception):
    """The traceback of an exception raised in a worker, as text."""

    def __str__(self) -> str:
        return self.args[0]


def usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _send(fh, data: bytes) -> None:
    """Write one message, pickled in full beforehand: a message that fails
    to pickle halfway must leave nothing on the pipe."""
    fh.write(data)
    fh.flush()


def _receive(fh):
    """The next message, or None where the input ends, also inside one.

    The pipes are buffered, yet a read never takes in part of a second
    message behind the selector's back: a worker has at most one task
    outstanding, so at most one reply in flight, and its stray prints go
    to standard error.
    """
    try:
        return pickle.load(fh)
    except (EOFError, pickle.UnpicklingError):
        return None


# ---------------------------------------------------------------------------
# the worker's side

def _pickled_error(exc: Exception) -> bytes:
    """The reply for ``exc`` and its traceback; an exception that does not
    survive a pickle round trip becomes a RuntimeError carrying its type
    and text."""
    text = "".join(traceback.format_exception(exc))
    try:
        data = pickle.dumps((False, (exc, text)), _PICKLE)
        pickle.loads(data)
        return data
    except Exception:
        error = RuntimeError(f"{type(exc).__name__}: {exc}")
        return pickle.dumps((False, (error, text)), _PICKLE)


def serve() -> None:
    """Answer tasks from standard input until it ends."""
    # an interrupt is the parent's to handle; it then ends the workers
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)  # so that a stray print cannot corrupt a reply
    setup = job = None
    while (message := _receive(sys.stdin.buffer)) is not None:
        kind, payload = message
        if kind == "setup":
            setup, job = payload, None
            continue
        try:
            if job is None:
                job = pickle.loads(setup)
            fn, shared = job
            reply = pickle.dumps((True, fn(*payload, *shared)), _PICKLE)
        except Exception as exc:
            reply = _pickled_error(exc)
        _send(out, reply)


# ---------------------------------------------------------------------------
# the parent's side

def _environment() -> dict[str, str]:
    env = dict(os.environ)
    env.update((name, "1") for name in _BLAS_THREADS)
    return env


class _Worker:
    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SERVE],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=_environment(),
        )

    def send(self, data: bytes) -> None:
        try:
            _send(self.proc.stdin, data)
        except OSError:
            raise self._lost() from None

    def receive(self) -> tuple[bool, object]:
        message = _receive(self.proc.stdout)
        if message is None:
            raise self._lost()
        return message

    def _lost(self) -> WorkerLost:
        try:
            code = self.proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            code = None
        return WorkerLost(f"grid worker {self.proc.pid} is gone (exit code {code})")


class _Pool:
    def __init__(self):
        self.pid = os.getpid()
        self.workers: list[_Worker] = []
        self.busy: dict[_Worker, int] = {}  # worker -> index of its task

    def grow(self, count: int) -> None:
        while len(self.workers) < count:
            self.workers.append(_Worker())

    def alive(self) -> bool:
        return all(w.proc.poll() is None for w in self.workers)

    def close(self, kill: bool = False) -> None:
        """End every worker: at end of input, or at once with ``kill``."""
        for w in self.workers:
            if kill:
                w.proc.kill()
            try:
                w.proc.stdin.close()
            except OSError:  # a message left unsent to a worker now gone
                pass
        for w in self.workers:
            try:
                w.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                w.proc.kill()
                w.proc.wait()
            w.proc.stdout.close()
        self.workers = []
        self.busy = {}

    def run(self, count: int, fn, shared: tuple, tasks: list):
        setup = pickle.dumps(("setup", pickle.dumps((fn, shared), _PICKLE)), _PICKLE)
        todo = list(enumerate(tasks))[::-1]
        failure = None
        with selectors.DefaultSelector() as selector:

            def start(worker):
                index, task = todo.pop()
                worker.send(pickle.dumps(("task", task), _PICKLE))
                self.busy[worker] = index
                selector.register(worker.proc.stdout, selectors.EVENT_READ, worker)

            for worker in self.workers[:min(count, len(todo))]:
                worker.send(setup)
                start(worker)
            while self.busy:
                for key, _ in selector.select():
                    worker = key.data
                    ok, payload = worker.receive()
                    selector.unregister(key.fileobj)
                    index = self.busy.pop(worker)
                    if not ok:
                        # the others finish their tasks, so the pool stays usable
                        failure = failure or payload
                        continue
                    if failure is None:
                        if todo:
                            start(worker)
                        yield index, payload
        if failure is not None:
            exc, text = failure
            raise exc from _RemoteTraceback(text)


_POOL: _Pool | None = None


def _close_pool() -> None:
    if _POOL is not None and _POOL.pid == os.getpid():
        _POOL.close()


atexit.register(_close_pool)


def run(count: int, fn, shared: tuple, tasks: list):
    """Yield ``(i, fn(*tasks[i], *shared))`` for every task, in the order the
    tasks finish, computed by ``count`` worker processes.

    ``fn`` and every argument must pickle, and ``fn`` must be importable
    from this package or the standard library.  An exception from a task
    is raised here with its type once the other running tasks are done.
    A task's arguments are unpickled as its message arrives, so arguments
    that a worker cannot unpickle end that worker: ``WorkerLost``.
    """
    global _POOL
    if _POOL is not None and (_POOL.pid != os.getpid() or not _POOL.alive()):
        if _POOL.pid == os.getpid():
            _POOL.close(kill=True)
        _POOL = None
    if _POOL is None:
        _POOL = _Pool()
    pool = _POOL
    pool.grow(count)
    try:
        yield from pool.run(count, fn, shared, tasks)
    except BaseException as exc:
        # a lost worker, an interrupt, or a caller that stopped early while
        # tasks still run: the pool is ended, and the next run starts anew
        if pool.busy or isinstance(exc, WorkerLost):
            pool.close(kill=True)
            if _POOL is pool:
                _POOL = None
        raise
