"""Worker threads for the recurrent kernel, and numpy's BLAS thread count.

`train_epoch` and `predict_dataset` run inside `workers(hidden)`, with
their model's recurrent width.  From `SPLIT_WIDTH` up, numpy's bundled
OpenBLAS is pinned to one thread for the whole block, and the previous
count comes back when the block ends, also when it raises; inside it the
kernel in `rnn` splits the directions of each layer pass into contiguous
groups (`direction_groups`), the calling thread running the first and one
pool, shared by the process, the other.  BLAS's own threads would compete
with the kernel's (an idle OpenBLAS thread spins for a while after each
call), and a product's last bits depend on BLAS's thread count.  Each
direction runs the same numpy ops on the same operands in whichever group
it falls, so a pass in such a block equals, bit for bit, the serial pass
under a one-thread BLAS, on any number of cores.  The BLAS thread count is
one setting for the whole process.

Below `SPLIT_WIDTH` the block changes nothing: every pass runs on the
calling thread at the ambient BLAS setting, because there a step's
products are too small to pay for a thread.  The same holds where the
BLAS thread count is not found (numpy built on another BLAS); it is found
through ctypes in the OpenBLAS that numpy ships (`numpy.libs`)."""

import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from functools import cache

import numpy as np

# the recurrent width from which passes split: on two CPUs, long's
# prediction ran split at x0.48 of the serial speed at hidden 32, x0.75 at
# 100, x1.01 at 150 and x1.13 at 200, where the per-step numpy calls, which
# hold the GIL, no longer outweigh the products, which release it
SPLIT_WIDTH = 150
# the most groups a pass splits into: the widest split measured
_MAX_GROUPS = 2

_state = threading.local()


@cache
def _blas_thread_calls():
    """(get, set) for the thread count of numpy's bundled OpenBLAS, or None
    when numpy ships no OpenBLAS that has them."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        put = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def direction_groups(dirs: int, cpus: int) -> list:
    """[start, stop) bounds of min(2, dirs, cpus) contiguous groups that
    cover `dirs` directions in order, their sizes differing by at most one
    (at least one group)."""
    k = max(1, min(_MAX_GROUPS, dirs, cpus))
    return [(dirs * i // k, dirs * (i + 1) // k) for i in range(k)]


def split_cpus() -> int:
    """The CPUs that passes on this thread split their directions over:
    the usable CPUs inside a `workers` block that pins BLAS, else 1."""
    return getattr(_state, "cpus", 1)


@contextmanager
def workers(hidden: int):
    """Run the kernel's passes inside the block split over the usable CPUs,
    with BLAS pinned to one thread, when their recurrent width `hidden` is
    at least `SPLIT_WIDTH` and the BLAS thread count can be set; else
    change nothing."""
    calls = _blas_thread_calls() if hidden >= SPLIT_WIDTH else None
    if calls is None:
        yield
        return
    get, put = calls
    before_blas, before = get(), split_cpus()
    put(1)
    _state.cpus = usable_cpus()
    try:
        yield
    finally:
        _state.cpus = before
        put(before_blas)


# the calling thread runs a group itself, so one worker fewer than groups;
# the pool starts its thread at its first task, not here
_POOL = ThreadPoolExecutor(_MAX_GROUPS - 1, thread_name_prefix="spanqa-gru")


def together(calls):
    """Run calls[0] on the calling thread and the others on the pool, all
    at once, and return when every one has finished, raising the first
    error; where passes do not split (`split_cpus()` < 2), run them in
    order on the calling thread.  A call should run numpy alone: a worker
    sees none of the calling thread's `no_grad` or `np.errstate`."""
    if split_cpus() < 2:
        for call in calls:
            call()
        return
    futures = [_POOL.submit(call) for call in calls[1:]]
    try:
        calls[0]()
    finally:
        wait(futures)
    for future in futures:
        future.result()
