import multiprocessing
import os

import pytest

from reldepth import workers


def test_one_blas_thread_restores_the_prior_count():
    threads = workers._openblas_threads()
    if threads is None:
        pytest.skip("numpy carries no OpenBLAS thread setter")
    get, _ = threads
    before = get()
    with pytest.raises(KeyError):
        with workers.one_blas_thread() as pinned:
            assert pinned and get() == 1
            raise KeyError("left by an exception")
    assert get() == before


def test_children_are_joined_when_the_block_raises():
    def serve(k, conn):
        conn.send(os.getpid())
        conn.recv()  # waits until the parent ends it

    with pytest.raises(KeyError):
        with workers.forked(2, serve, "test worker") as children:
            pids = [child.recv() for child in children]
            assert len(set(pids)) == 2 and os.getpid() not in pids
            raise KeyError("parent failed")
    assert all(child.process.exitcode is not None for child in children)
    assert multiprocessing.active_children() == []


def test_a_dead_child_raises_with_its_exit_code():
    def serve(k, conn):
        os._exit(40 + k)

    with workers.forked(2, serve, "test worker") as children:
        for k, child in enumerate(children, 1):
            with pytest.raises(workers.WorkerExited, match=f"^test worker exited {40 + k}$"):
                child.recv()
            with pytest.raises(workers.WorkerExited, match=f"^test worker exited {40 + k}$"):
                child.send(b"x" * (1 << 20))
