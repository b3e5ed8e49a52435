"""The learning-rate grid in worker processes against the in-process grid,
and the worker pool's lifecycle: errors, lost workers, scripts, exit."""

import functools
import io
import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from atomslot import models, neural, workers
from atomslot.models import (
    ACD1, JS, TrainingDiverged, adjust_nn_arch, format_train_log, train, train_acd,
)
from atomslot.neural import NeuralError, ShapeSpec, TrainingConfig, init_params

from test_models import prepared_target, source_setup, tagger, target_ontology

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
GRID = TrainingConfig(
    epochs=2, dropout=0.3, emb_dim=4, hidden=4, seed=3, lr_grid=(0.01, 0.05, 0.2)
)


@pytest.fixture
def two_cpus(monkeypatch):
    """Grids train in two workers, whatever this machine has."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
    assert models._worker_count(3) == 2


def in_process(monkeypatch, fit):
    with monkeypatch.context() as m:
        m.setattr(models, "_worker_count", lambda rates: 1)
        return fit()


def assert_same_fit(pooled, local, stage):
    (model, log), (model_here, log_here) = pooled, local
    assert format_train_log(log) == format_train_log(log_here)
    assert log.chosen == log_here.chosen
    assert log.candidates == log_here.candidates
    assert np.array_equal(getattr(model, stage).buffer, getattr(model_here, stage).buffer)


def test_a_js_grid_in_workers_equals_the_in_process_grid(two_cpus, monkeypatch):
    ontology = target_ontology()
    corpus, valid = prepared_target()

    def fit():
        return train(JS, ontology, corpus, valid, GRID)

    pooled = fit()
    assert len(workers._POOL.workers) == 2
    assert_same_fit(pooled, in_process(monkeypatch, fit), "stage1")


def test_an_acd_grid_in_workers_equals_the_in_process_grid(two_cpus, monkeypatch):
    ontology, source_ontology, source = source_setup()
    corpus, valid = prepared_target()
    model = adjust_nn_arch(
        tagger(ACD1, source_ontology, source, dims_used=1), source_ontology, ontology, seed=0
    )

    def fit():
        return train_acd(ontology, model, corpus, valid, GRID)

    assert_same_fit(fit(), in_process(monkeypatch, fit), "stage2")


def test_a_diverging_rate_in_a_worker_is_logged_and_all_diverging_raise(two_cpus, monkeypatch):
    ontology = target_ontology()
    corpus, valid = prepared_target()
    # 1e308 times a gradient entry above 1.8 overflows the parameters
    config = TrainingConfig(epochs=2, dropout=0.0, emb_dim=4, hidden=4, lr_grid=(0.05, 1e308))

    def fit():
        with np.errstate(all="ignore"):
            return train(JS, ontology, corpus, valid, config)

    pooled = fit()
    assert [c.diverged_epoch for c in pooled[1].candidates] == [None, 1]
    assert "1\t1e+308\t1\tdiverged\t-" in format_train_log(pooled[1]).splitlines()
    assert_same_fit(pooled, in_process(monkeypatch, fit), "stage1")
    with pytest.raises(TrainingDiverged):
        with np.errstate(all="ignore"):
            train(JS, ontology, corpus, valid,
                  TrainingConfig(epochs=1, dropout=0.0, emb_dim=4, hidden=4,
                                 lr_grid=(1e308, 1.5e308)))


def test_an_exception_in_a_worker_reaches_the_caller_with_its_type():
    shape = ShapeSpec(tables=((3, 2),), hidden=1, heads=(("a", "b"),))
    bad = [("a.npy", shape, b"not a parameter array"), ("b.npy", shape, b"")]
    with pytest.raises(NeuralError, match="not a parameter array") as caught:
        list(workers.run(2, neural.load_params, (), bad))
    assert "load_params" in str(caught.value.__cause__)
    # the pool outlives a task's exception
    assert sorted(i for i, _ in workers.run(2, abs, (), [(-1,), (2,), (-3,)])) == [0, 1, 2]


def test_a_gold_id_out_of_range_fails_the_grid_with_its_type(two_cpus):
    shape = ShapeSpec(tables=((5, 3),), hidden=2, heads=(("O", "B"),))
    start = functools.partial(models._fresh_params, shape, 0.2)
    encoded = [(np.array([2, 3]), (np.array([0, 7]),))]
    config = TrainingConfig(epochs=1, dropout=0.0, lr_grid=(0.1, 0.2))
    with pytest.raises(NeuralError, match="head 0: label id 7") as caught:
        models._fit(start, encoded, abs, config, 0)
    assert "_run_candidate" in str(caught.value.__cause__)


def worker_pids(count=2):
    return {pid for _, pid in workers.run(count, os.getpid, (), [()] * count)}


def test_a_lost_worker_raises_and_the_next_run_starts_a_new_pool():
    with pytest.raises(workers.WorkerLost):
        list(workers.run(2, os._exit, (), [(3,), (3,)]))
    assert workers._POOL is None
    assert len(worker_pids()) == 2


def test_a_worker_killed_mid_task_raises_instead_of_hanging():
    victim = min(worker_pids())
    timer = threading.Timer(0.5, os.kill, (victim, signal.SIGKILL))
    timer.start()
    started = time.perf_counter()
    try:
        with pytest.raises(workers.WorkerLost):
            list(workers.run(2, time.sleep, (), [(60,), (60,)]))
    finally:
        timer.cancel()
    assert time.perf_counter() - started < 30
    # a worker killed while the pool is idle is replaced silently
    pids = worker_pids()
    idle = next(w.proc for w in workers._POOL.workers if w.proc.pid == min(pids))
    idle.kill()
    idle.wait(timeout=10)
    assert len(worker_pids() - pids) == 2


def test_a_setup_and_a_reply_larger_than_a_pipe_buffer_go_through():
    size = 4 << 20
    assert dict(workers.run(2, len, (b"x" * size,), [()] * 3)) == {0: size, 1: size, 2: size}
    assert dict(workers.run(2, bytes, (), [(size,)] * 2)) == {0: bytes(size), 1: bytes(size)}


def test_a_result_that_does_not_pickle_raises_and_the_pool_runs_on():
    pids = worker_pids(1)
    with pytest.raises(TypeError):
        list(workers.run(1, threading.Lock, (), [()]))
    assert list(workers.run(1, abs, (), [(-2,)])) == [(0, 2)]
    assert worker_pids(1) == pids


def test_a_task_that_prints_still_gets_its_reply():
    assert list(workers.run(1, print, (), [("noise",)])) == [(0, None)]


def test_a_stream_that_ends_at_or_inside_a_message_is_end_of_input():
    data = pickle.dumps(("task", (1, "two", 3.0)), pickle.HIGHEST_PROTOCOL)
    assert workers._receive(io.BytesIO(data)) == ("task", (1, "two", 3.0))
    for cut in range(len(data)):
        assert workers._receive(io.BytesIO(data[:cut])) is None, cut


def test_workers_run_single_threaded_blas():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    found = dict(workers.run(2, os.getenv, (), [(name,) for name in names]))
    assert found == {0: "1", 1: "1", 2: "1"}


def test_replaced_numerics_keep_the_grid_in_process(two_cpus, monkeypatch):
    ontology = target_ontology()
    corpus, valid = prepared_target()
    steps = []
    real = neural.sgd_step
    monkeypatch.setattr(neural, "sgd_step", lambda *args: steps.append(1) or real(*args))
    assert models._worker_count(3) == 1
    train(JS, ontology, corpus, valid, GRID)
    assert len(steps) == len(corpus) * GRID.epochs * len(GRID.grid())


GRID_SCRIPT = """\
from atomslot import workers
from atomslot.corpus import builtin_flight_grammar, generate_synthetic, preprocess
from atomslot.models import JS, format_train_log, train
from atomslot.neural import TrainingConfig

print("top level ran")
workers.usable_cpus = lambda: 2
grammar, ontology = builtin_flight_grammar()
corpus, vocab = preprocess(generate_synthetic(grammar, ontology, 12, seed=1))
valid, _ = preprocess(generate_synthetic(grammar, ontology, 6, seed=2), vocab)
config = TrainingConfig(epochs=1, emb_dim=4, hidden=4, lr_grid=(0.02, 0.04, 0.08))
_, log = train(JS, ontology, corpus, valid, config)
print(format_train_log(log))
print("workers", *(w.proc.pid for w in workers._POOL.workers))
"""


def run_python(args, timeout=120):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_an_unguarded_script_sweeps_a_grid(tmp_path, monkeypatch):
    script = tmp_path / "sweep.py"
    script.write_text(GRID_SCRIPT)
    done = run_python([str(script)])
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("top level ran") == 1
    # the same log as this process trains in process
    namespace = {}
    with monkeypatch.context() as m:
        m.setattr(models, "_worker_count", lambda rates: 1)
        m.setattr(workers, "usable_cpus", workers.usable_cpus)  # the script sets it
        exec(compile(GRID_SCRIPT, "sweep", "exec"), namespace)
    log = format_train_log(namespace["log"])
    assert log in done.stdout


def test_no_worker_outlives_a_python_c_grid_run():
    done = run_python(["-c", GRID_SCRIPT])
    assert done.returncode == 0, done.stderr
    pids = [int(p) for p in done.stdout.split("workers")[1].split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_a_pickled_model_holds_its_buffer_once():
    shape = ShapeSpec(tables=((50, 8), (6, 3)), hidden=8, heads=(("O", "B", "I"), ("x", "y")))
    params = init_params(shape, 0)
    params.heads  # views built before pickling are not pickled
    data = pickle.dumps(params, pickle.HIGHEST_PROTOCOL)
    assert params.buffer.nbytes < len(data) < params.buffer.nbytes + 1024
    again = pickle.loads(data)
    assert again.shape == params.shape
    assert np.array_equal(again.buffer, params.buffer)
    for (name, block), (_, original) in zip(again.blocks(), params.blocks()):
        assert np.shares_memory(block, again.buffer), name
        assert np.array_equal(block, original), name
