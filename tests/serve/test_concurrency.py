"""Concurrency contracts of the state serve workers share.

Each test holds a window open on one shared object: a chosen operation
parks its thread just before it runs, until another thread touches the
same object or ``WINDOW_S`` pass. Code that holds the owner's lock
across the operation keeps every other thread out for the whole pause,
so the contract holds after a short wait. Code that drops the lock is
forced through the interleaving the lock exists to prevent, on every
run: a key computed twice, a lost counter update, a stats snapshot
that no serial order produces, a failed job polled without its error,
or a memo past its capacity.

Each contract is a function of the module under test that returns
what it observed, so a tampered copy of ``repro.serve.jobs`` can be
run against it too (``tests/analyze/test_self_check.py``).
"""

import threading
from collections import OrderedDict

from repro.serve import jobs
from repro.serve.jobs import JobSpec
from repro.store import ResultMemo

#: How long a parked operation waits for a second thread.
WINDOW_S = 0.25

#: Methods of a held object that count as a touch by another thread.
_TOUCHES = (
    "__setattr__", "__getitem__", "__setitem__", "__contains__",
    "__len__", "get", "pop", "popitem", "move_to_end",
)

SPEC = JobSpec("lj", "pagerank")
OTHER = JobSpec("sd", "bfs")


class Window:
    """Parks the first matching operation until a second thread arrives.

    Only one operation parks per window; ``parked`` is set while it
    waits, and ``release()`` ends the wait early.
    """

    def __init__(self):
        self.parked = threading.Event()
        self._cond = threading.Condition()
        self._owner = None
        self._open = False
        self._used = False

    def park(self):
        with self._cond:
            if self._used:
                return
            self._used = self._open = True
            self._owner = threading.get_ident()
            self.parked.set()
            self._cond.wait_for(lambda: not self._open, timeout=WINDOW_S)
            self._open = False

    def arrive(self):
        with self._cond:
            if self._open and threading.get_ident() != self._owner:
                self._open = False
                self._cond.notify_all()

    release = arrive


def held(base, window, parks):
    """A subclass of ``base`` that reports every touch to ``window``.

    An operation for which ``parks(obj, name, args)`` is true parks
    before it runs; any other touch runs first and then arrives, so a
    read that arrives has already read the value it will act on.
    """
    def wrap(name):
        real = getattr(base, name)

        def method(self, *args, **kwargs):
            if parks(self, name, args):
                window.park()
                return real(self, *args, **kwargs)
            out = real(self, *args, **kwargs)
            window.arrive()
            return out
        return method

    methods = {n: wrap(n) for n in _TOUCHES if hasattr(base, n)}
    return type(f"Held{base.__name__}", (base,), methods)


def hold(manager, attr, name, key=None):
    """Swap ``manager.<attr>`` for a held copy; ``name`` (with first
    argument ``key``, when given) is the operation that parks."""
    window = Window()
    container = getattr(manager, attr)
    cls = held(type(container), window, lambda obj, op, args: (
        op == name and (key is None or args[:1] == (key,))
    ))
    setattr(manager, attr, cls(container))
    return window


def in_thread(fn, *args):
    thread = threading.Thread(target=fn, args=args, daemon=True)
    thread.start()
    return thread


def _instant(spec, progress):
    return {"dataset": spec.dataset}


def _failing(spec, progress):
    raise RuntimeError("runner blew up")


def submit_while_finishing(module=jobs):
    """(state, computed) of a submit landing while the key's job
    moves from in flight to warm."""
    mgr = module.JobManager(_instant, workers=1)
    window = hold(mgr, "_warm", "__setitem__")
    mgr.submit(SPEC)
    assert window.parked.wait(5)
    state, _, _ = mgr.submit(SPEC)
    window.release()
    mgr.shutdown()
    return state, mgr.stats()["computed"]


def submit_while_registering(module=jobs):
    """(state, computed) of a submit landing while an identical one
    publishes its job."""
    release = threading.Event()
    mgr = module.JobManager(
        lambda spec, progress: release.wait(10) and {}, workers=2
    )
    window = hold(mgr, "_inflight", "__setitem__")
    first = in_thread(mgr.submit, SPEC)
    assert window.parked.wait(5)
    state, _, _ = mgr.submit(SPEC)
    first.join(5)
    release.set()
    mgr.shutdown()
    return state, mgr.stats()["computed"]


def submitted_count(module=jobs):
    """``submitted`` after two submits, the second landing between the
    first's read and write of the counter."""
    mgr = module.JobManager(_instant, workers=1)
    window = hold(mgr, "_counters", "__setitem__", key="submitted")
    first = in_thread(mgr.submit, SPEC)
    assert window.parked.wait(5)
    mgr.submit(OTHER)
    first.join(5)
    mgr.shutdown()
    return mgr.stats()["submitted"]


def stats_while_failing(module=jobs):
    """A stats snapshot taken while a failing job is being retired."""
    mgr = module.JobManager(_failing, workers=1)
    window = hold(mgr, "_counters", "__setitem__", key="failed")
    mgr.submit(SPEC)
    assert window.parked.wait(5)
    stats = mgr.stats()
    window.release()
    mgr.shutdown()
    return stats


def poll_while_failing(monkeypatch, module=jobs):
    """Job snapshots polled just before the worker writes the error,
    and after the job finished."""
    window = Window()
    monkeypatch.setattr(module, "Job", held(
        module.Job, window, lambda obj, op, args: (
            op == "__setattr__" and args[0] == "error"
            and args[1] is not None
        ),
    ))
    mgr = module.JobManager(_failing, workers=1)
    _, job, _ = mgr.submit(SPEC)
    assert window.parked.wait(5)
    during = job.snapshot()
    window.release()
    assert mgr.wait(job, 5)
    mgr.shutdown()
    return during, job.snapshot()


def test_a_finishing_job_is_warm_or_in_flight_never_neither():
    state, computed = submit_while_finishing()
    assert (state, computed) == ("warm", 1)


def test_identical_submits_register_one_job():
    state, computed = submit_while_registering()
    assert (state, computed) == ("coalesced", 1)


def test_submit_counts_every_request():
    assert submitted_count() == 2


def test_a_failure_is_one_transition():
    stats = stats_while_failing()
    assert stats["computed"] == stats["live_jobs"] + stats["failed"] == 1


def test_a_failed_poll_carries_its_error(monkeypatch):
    during, after = poll_while_failing(monkeypatch)
    assert during["status"] != "failed" or during["error"] is not None
    assert (after["status"], after["error"]) == (
        "failed", "RuntimeError: runner blew up"
    )


def test_result_memo_counts_every_get():
    # Two misses on one handle: the first parks between reading and
    # writing its miss count.
    window = Window()
    memo = ResultMemo(capacity=2)
    memo.__class__ = held(ResultMemo, window, lambda obj, op, args: (
        op == "__setattr__" and args[0] == "misses"
    ))
    first = in_thread(memo.get, "a")
    assert window.parked.wait(5)
    memo.get("b")
    first.join(5)
    assert memo.hits + memo.misses == 2


def test_result_memo_never_exceeds_its_capacity():
    # A put into a full memo parks after storing, before evicting.
    memo = ResultMemo(capacity=1)
    memo.put("old", 1)
    window = Window()
    memo._entries = held(OrderedDict, window, lambda obj, op, args: (
        op == "move_to_end"
    ))(memo._entries)
    first = in_thread(memo.put, "new", 2)
    assert window.parked.wait(5)
    size, value = len(memo), memo.get("old")
    first.join(5)
    assert size <= memo.capacity
    assert memo.hits + memo.misses == 1 and value in (1, None)
    assert len(memo) == 1 and memo.get("new") == 2
