import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_left_running():
    """Fail any test that leaves a forked child alive; the children are
    ended so that later tests start clean."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"test left live child processes: {left}"
