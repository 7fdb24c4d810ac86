import multiprocessing
import os

import pytest

from reldepth import workers


def see_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.fixture
def blas_setter():
    """numpy's OpenBLAS (get, set) thread count pair; without it forked runs
    every job in one process."""
    threads = workers._openblas_threads()
    if threads is None:
        pytest.skip("numpy carries no OpenBLAS thread setter")
    return threads


def test_one_blas_thread_restores_the_prior_count(blas_setter):
    get, _ = blas_setter
    before = get()
    with pytest.raises(KeyError):
        with workers.one_blas_thread() as pinned:
            assert pinned and get() == 1
            raise KeyError("left by an exception")
    assert get() == before


@pytest.mark.parametrize("items", [0, 1, 2, 5])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_items_share_over_the_cores_on_one_blas_thread(monkeypatch, blas_setter, cpus, items):
    get, _ = blas_setter
    before = get()

    def serve(k, shares, conn):
        conn.send((k, shares, get()))

    see_cpus(monkeypatch, cpus)
    shares = min(cpus, items)
    with workers.forked(items, serve, "test worker") as children:
        assert get() == 1
        assert [child.recv() for child in children] == [(k, shares, 1) for k in range(1, shares)]
    assert get() == before


def test_one_share_without_the_thread_setter(monkeypatch):
    def serve(k, shares, conn):
        raise AssertionError("no child is forked")

    monkeypatch.setattr(workers, "_openblas_threads", lambda: None)
    see_cpus(monkeypatch, 3)
    with workers.forked(5, serve, "test worker") as children:
        assert children == []


def test_children_are_joined_when_the_block_raises(monkeypatch, blas_setter):
    def serve(k, shares, conn):
        conn.send(os.getpid())
        conn.recv()  # waits until the parent ends it

    see_cpus(monkeypatch, 3)
    with pytest.raises(KeyError):
        with workers.forked(3, serve, "test worker") as children:
            pids = [child.recv() for child in children]
            assert len(set(pids)) == 2 and os.getpid() not in pids
            raise KeyError("parent failed")
    assert all(child.process.exitcode is not None for child in children)
    assert multiprocessing.active_children() == []


def test_a_dead_child_raises_with_its_exit_code(monkeypatch, blas_setter):
    def serve(k, shares, conn):
        os._exit(40 + k)

    see_cpus(monkeypatch, 3)
    with workers.forked(3, serve, "test worker") as children:
        assert len(children) == 2
        for k, child in enumerate(children, 1):
            with pytest.raises(workers.WorkerExited, match=f"^test worker exited {40 + k}$"):
                child.recv()
            with pytest.raises(workers.WorkerExited, match=f"^test worker exited {40 + k}$"):
                child.send(b"x" * (1 << 20))


def test_a_child_whose_parent_end_is_gone_ends_quietly(monkeypatch, blas_setter, capfd):
    def serve(k, shares, conn):
        conn.poll(30)  # until the parent's end is closed
        conn.send(b"x" * (1 << 20))

    see_cpus(monkeypatch, 2)
    with workers.forked(2, serve, "test worker") as children:
        (child,) = children
        child.conn.close()
        child.process.join(30)
    assert child.process.exitcode == 0
    assert capfd.readouterr().err == ""
