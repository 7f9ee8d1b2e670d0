"""Seed sweeps split over forked processes.

``engine.sweep`` cuts its seeds into contiguous batches, runs batch 0 in this
process and every other batch in a forked child, and joins the results in
seed order. The tests set the split by patching ``engine.usable_cores``.
They hold any split to the in-process sweep (one core) byte for byte, send
exceptions from a child's batch, and check after each that no child process
is left. Budget: 3 s for the file; it takes under 1 s on a 2-core host.
"""

import errno
import itertools
import os
import threading

import pytest

import neuroloop.engine as engine
from neuroloop.engine import sweep, usable_cores

from test_batch import beta_scenario, ecap_scenario, ieeg_scenario, texts

SHORT = {
    "ecap": lambda: ecap_scenario(duration_s=1.6),
    "beta": lambda: beta_scenario(duration_s=5.0),
    "ieeg": lambda: ieeg_scenario(duration_s=5.0),
}
# Every split up to the usable cores, and at least one with two children.
CORES = range(1, max(usable_cores(), 3) + 1)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def on_cores(monkeypatch, k: int) -> None:
    """Make ``sweep`` split its seeds as it would with ``k`` usable cores."""
    monkeypatch.setattr(engine, "usable_cores", lambda: k)


def in_children(fn):
    """``fn``, called only in a process forked after this call; elsewhere a no-op."""
    parent = os.getpid()

    def wrapper(*args, **kwargs):
        if os.getpid() != parent:
            fn(*args, **kwargs)

    return wrapper


def patch_stage(monkeypatch, stage: str, hook) -> None:
    """Run ``hook(call)`` before each call of ``engine.<stage>``, counting calls from 0."""
    original = getattr(engine, stage)
    calls = itertools.count()

    def wrapper(*args, **kwargs):
        hook(next(calls))
        return original(*args, **kwargs)

    monkeypatch.setattr(engine, stage, wrapper)


@pytest.mark.parametrize("kind", SHORT)
def test_any_split_renders_the_in_process_bytes(monkeypatch, kind):
    # n below, equal to and not divisible by each core count; lane k is seed
    # base + k whatever the split, so every sweep is a prefix of the widest.
    scenario = SHORT[kind]()
    widest = max(CORES) + 1
    on_cores(monkeypatch, 1)
    expected = [texts(r) for r in sweep(scenario, widest)]
    for cores in CORES:
        on_cores(monkeypatch, cores)
        for n in sorted({max(cores - 1, 1), cores, cores + 1}):
            batch = sweep(scenario, n)
            assert [r.scenario.seed for r in batch] == [scenario.seed + i for i in range(n)]
            assert [texts(r) for r in batch] == expected[:n], (cores, n)


def test_seed_shift_across_the_cut(monkeypatch):
    # Four seeds on two cores cut between lanes 1 and 2.
    scenario = SHORT["ieeg"]()
    on_cores(monkeypatch, 2)
    batch = sweep(scenario, 4)
    for k in (1, 2):
        alone = sweep(scenario.with_seed(scenario.seed + k), 2)[0]
        assert texts(batch[k]) == texts(alone), k


def test_child_exception_propagates_with_its_seeds(monkeypatch):
    scenario = SHORT["ecap"]()

    def fail(call):
        raise ZeroDivisionError("synthetic program error")

    on_cores(monkeypatch, 2)
    patch_stage(monkeypatch, "device_step", in_children(fail))
    with pytest.raises(ZeroDivisionError, match="synthetic program error") as info:
        sweep(scenario, 5)
    seeds = f"seeds {scenario.seed + 2}..{scenario.seed + 4}"
    assert any(seeds in note for note in info.value.__notes__)


class Noteless(Exception):
    """An exception without ``add_note``, as every exception is on Python 3.10."""

    @property
    def add_note(self):
        raise AttributeError("add_note")


def test_child_exception_without_notes_is_chained_with_its_seeds(monkeypatch):
    scenario = SHORT["ecap"]()

    def fail(call):
        raise Noteless("synthetic program error")

    on_cores(monkeypatch, 2)
    patch_stage(monkeypatch, "device_step", in_children(fail))
    seeds = rf"seeds {scenario.seed + 1}\.\.{scenario.seed + 1}$"
    with pytest.raises(RuntimeError, match=seeds) as info:
        sweep(scenario, 2)
    assert isinstance(info.value.__cause__, Noteless)


def test_unpicklable_child_exception_is_a_runtime_error(monkeypatch):
    class Local(Exception):   # pickled by reference, which a local class has not
        pass

    def fail(call):
        raise Local("cannot cross the pipe")

    on_cores(monkeypatch, 2)
    patch_stage(monkeypatch, "device_step", in_children(fail))
    scenario = SHORT["ecap"]()
    with pytest.raises(RuntimeError, match=rf"seeds {scenario.seed + 1}\.\.{scenario.seed + 1} "
                                           r"exited with status 1 without a result"):
        sweep(scenario, 2)


def test_child_that_dies_is_a_runtime_error(monkeypatch):
    on_cores(monkeypatch, 2)
    patch_stage(monkeypatch, "device_step", in_children(lambda call: os._exit(7)))
    with pytest.raises(RuntimeError, match="exited with status 7 without a result"):
        sweep(SHORT["ecap"](), 2)


@pytest.mark.parametrize("error", [ZeroDivisionError, KeyboardInterrupt])
def test_parent_batch_exception_reaps_the_children(monkeypatch, error):
    parent = os.getpid()

    def fail(call):
        if os.getpid() == parent and call == 3:
            raise error("synthetic")

    on_cores(monkeypatch, 2)
    patch_stage(monkeypatch, "device_step", fail)
    with pytest.raises(error):
        sweep(SHORT["ieeg"](), 4)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_fork_failure_closes_its_pipe(monkeypatch):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "synthetic fork failure")

    on_cores(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    before = os.listdir("/dev/fd")
    with pytest.raises(BlockingIOError):
        sweep(SHORT["ecap"](), 2)
    assert os.listdir("/dev/fd") == before


def forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("sweep forked")

    monkeypatch.setattr(os, "fork", fork)


def test_one_core_or_one_seed_runs_in_process(monkeypatch):
    scenario = SHORT["beta"]()
    on_cores(monkeypatch, 2)
    expected = [texts(r) for r in sweep(scenario, 3)]
    forbid_fork(monkeypatch)
    assert [texts(r) for r in sweep(scenario, 1)] == expected[:1]
    on_cores(monkeypatch, 1)
    assert [texts(r) for r in sweep(scenario, 3)] == expected


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    scenario = SHORT["beta"]()
    on_cores(monkeypatch, 1)
    expected = [texts(r) for r in sweep(scenario, 3)]
    on_cores(monkeypatch, 2)
    forbid_fork(monkeypatch)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert [texts(r) for r in sweep(scenario, 3)] == expected
    finally:
        done.set()
        thread.join()
