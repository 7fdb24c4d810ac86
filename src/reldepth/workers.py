"""Forked worker processes: how many share a job, and the BLAS thread pin
they all run under. Children are forked, not spawned: they inherit their
work's closure, so nothing of reldepth is pickled (once reldepth is imported
afresh in a process, its functions and classes no longer pickle by name) and
only builtins and numpy arrays cross the pipes.
"""

import functools
import multiprocessing
import os
from contextlib import contextmanager


class WorkerExited(ChildProcessError):
    """A child ended before sending what the parent waited for."""


class Worker:
    """The parent's end of one child's duplex pipe. A child's death ends the
    pipe, so send and recv raise WorkerExited, "<name> exited <code>"."""

    def __init__(self, name, process, conn):
        self.name, self.process, self.conn = name, process, conn

    def send(self, message):
        try:
            self.conn.send(message)
        except (BrokenPipeError, ConnectionResetError):
            raise self._exited() from None

    def recv(self):
        try:
            return self.conn.recv()
        except (EOFError, ConnectionResetError):
            raise self._exited() from None

    def _exited(self):
        self.process.join()
        return WorkerExited(f"{self.name} exited {self.process.exitcode}")


def _child(serve, k, shares, conn, parent_end):
    parent_end.close()  # so that the child sees EOF once the parent is gone
    try:
        serve(k, shares, conn)
    except (BrokenPipeError, ConnectionResetError):
        pass  # the parent's end is gone, and with it anyone to tell


@contextmanager
def forked(items, serve, name):
    """Share a job of items items over n = min(cores, items) processes,
    counting the cores this process may run on; over one without numpy's
    bundled OpenBLAS thread setter. The block, which works share 0, and the
    n - 1 children forked in it run OpenBLAS on one thread; the block gets
    their Workers, child k running serve(k, n, conn) on its end of a duplex
    pipe. A child that finds the parent's end of its pipe gone ends quietly,
    with exit code 0. On leaving the block, also by an exception, each child
    still running is terminated, every child joined and every pipe closed."""
    fork = multiprocessing.get_context("fork")
    with one_blas_thread() as pinned:
        shares = min(len(os.sched_getaffinity(0)), items) if pinned else 1
        workers = []
        try:
            for k in range(1, shares):
                here, there = fork.Pipe()
                process = fork.Process(target=_child, args=(serve, k, shares, there, here))
                process.start()
                there.close()  # the child holds the only copy of its end
                workers.append(Worker(name, process, here))
            yield workers
        finally:
            for worker in workers:
                worker.process.terminate()  # a no-op for a child that has exited
                worker.process.join()
                worker.conn.close()


@functools.cache
def _openblas_threads():
    """(get, set) of numpy's bundled OpenBLAS thread count, or None. Looked
    up on first use: loading the library at import slows every command."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread and restore the
    prior count after it; yields False, changing nothing, without the
    library's thread setter. Children forked in the block inherit the pin,
    so OpenBLAS computes on the calling thread alone and never waits on the
    pool threads a fork leaves behind."""
    threads = _openblas_threads()
    if threads is None:
        yield False
        return
    get, set_ = threads
    prior = get()
    set_(1)
    try:
        yield True
    finally:
        set_(prior)
