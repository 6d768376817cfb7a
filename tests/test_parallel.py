"""Tests for the fork pool's handling of the caller's heap."""

import gc

import pytest

from flowclean import parallel


def test_workers_see_the_callers_heap_frozen_and_the_caller_gets_it_back(many_cpus):
    # a worker's collections skip the frozen objects it inherited
    assert min(parallel.fork_map(lambda i: gc.get_freeze_count(), 2, 2)) > 0
    assert gc.get_freeze_count() == 0


def test_a_failing_item_unfreezes_the_heap(many_cpus):
    def task(i):
        if i == 1:
            raise ValueError("item 1")
        return i

    with pytest.raises(ValueError, match="item 1"):
        parallel.fork_map(task, 3, 2)
    assert gc.get_freeze_count() == 0
