"""The worker process runtime: the fork block, forked, and the pair loop,
pairs, which nn's training slices and cascade.predict_many's examples run
on. It knows nothing of what it runs; each computation pins its own BLAS."""

from __future__ import annotations

import ctypes
import os
import pickle
from contextlib import contextmanager

from .errors import ContractViolationError


def _keep_freed_memory() -> None:
    """Have glibc's malloc keep what this process frees and serve blocks of
    up to 32 MiB (its largest threshold) from the heap. A worker's slices free
    all they allocate, so glibc would hand it back to the kernel and fault it
    in again every slice: about 15k minor faults per step at batch 128. A
    no-op where libc has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


def _answer(serve, requests, replies) -> None:
    """A forked child's loop: write back serve(request), or the exception it
    raised, for each request read from requests; return at their end, when
    the caller closes them or dies."""
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            return
        try:
            reply = False, serve(request)
        except Exception as e:
            reply = True, e
        try:
            data = pickle.dumps(reply)
        except Exception:  # an exception that does not pickle
            data = pickle.dumps((True, ContractViolationError(f"{type(reply[1]).__name__}: {reply[1]}")))
        replies.write(data)
        replies.flush()


class _Child:
    """The caller's end of a process that forked made: a request goes down
    one pipe, and its reply comes back up another. One request is in flight
    at a time: send, then receive its reply."""

    def __init__(self, pid: int, requests, replies, name: str):
        self._pid, self._requests, self._replies, self._name = pid, requests, replies, name
        self._waiting = False  # a request was sent whose reply was not received
        self._code = None  # the exit code of the child, once it died and was waited for

    def send(self, request) -> None:
        """Send request, first reading and dropping the reply to the request
        before it where that reply was never received (a pair that raised)."""
        if self._waiting:
            self._next()
        try:
            pickle.dump(request, self._requests)
            self._requests.flush()
        except BrokenPipeError:
            self._died()
        self._waiting = True

    def receive(self):
        """The reply to the request sent last; raises, with its type, the
        exception that serving the request raised."""
        raised, reply = self._next()
        if raised:
            raise reply
        return reply

    def _next(self) -> tuple[bool, object]:
        self._waiting = False
        try:
            return pickle.load(self._replies)
        except EOFError:
            self._died()

    def _died(self):
        """Raise ContractViolationError naming the exit code of the child,
        which ended; the first call waits for it."""
        if self._code is None:
            _, status = os.waitpid(self._pid, 0)
            self._pid, self._code = None, os.waitstatus_to_exitcode(status)
        raise ContractViolationError(f"the {self._name} worker process ended with exit code {self._code}")

    def close(self) -> None:
        """Close the pipes, kill the child and wait for it to end."""
        from signal import SIGKILL

        for f in (self._requests, self._replies):
            try:
                f.close()
            except OSError:  # a request the dead child never read
                pass
        if self._pid is not None:
            os.kill(self._pid, SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = None


def _cpu_split() -> tuple[int, set[int]] | None:
    """The CPU the calling thread runs on and the set it may run on, where
    that set holds another CPU too; None where it does not, or where the
    platform cannot tell."""
    getcpu = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    if getcpu is None or not hasattr(os, "sched_setaffinity"):
        return None
    getcpu.argtypes, getcpu.restype = [], ctypes.c_int
    here, allowed = getcpu(), os.sched_getaffinity(0)
    return (here, allowed) if here in allowed and len(allowed) > 1 else None


class _Inline:
    """What forked yields where os.fork does not exist: a _Child's send and
    receive on the calling thread, where receive runs serve on the request
    sent last and raises what serve raised."""

    def __init__(self, serve):
        self._serve, self._request = serve, None

    def send(self, request) -> None:
        self._request = request  # a request whose reply was never received is dropped unserved

    def receive(self):
        return self._serve(self._request)


@contextmanager
def forked(serve, name: str):
    """A child process forked from the caller that answers each request sent
    to the _Child yielded with serve(request), in order. serve and what it
    reads come to the child through the fork; the requests and replies are
    pickled. Where os.fork does not exist, the block gets an _Inline of serve
    instead: the same requests and replies, served one after another on the
    calling thread.

    While the block runs, the calling thread stays on the CPU it ran on and
    the child runs on the caller's other CPUs (_cpu_split). Unpinned, the
    wake-up on a reply could move the caller to the child's CPU, so it left
    the block on either CPU, while a process that never forks stays on one;
    where one CPU runs slower, as a vCPU with a busy neighbour does, the
    caller's later work slowed with it.
    The child ignores SIGINT, which Ctrl-C sends the caller as well, keeps
    the memory it frees (_keep_freed_memory) and exits at the end of its
    request pipe, so also when the caller dies. Sending to or receiving from
    a child that died raises ContractViolationError: "the <name> worker
    process ended with exit code <code>". Every exit from the block, an
    exception or Ctrl-C included, closes the pipes, kills the child, waits
    for it and gives the caller back the CPUs it had. A fork that fails
    closes the pipes and raises its OSError.
    """
    if not hasattr(os, "fork"):
        yield _Inline(serve)
        return
    import signal  # here, so a process that never forks does not load it

    split = _cpu_split()
    requests, replies = os.pipe(), os.pipe()  # (read fd, write fd) each
    try:
        pid = os.fork()
    except OSError:
        for fd in requests + replies:
            os.close(fd)
        raise
    if pid == 0:  # the child, which never returns from here
        code = 1
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            if split:
                os.sched_setaffinity(0, split[1] - {split[0]})
            _keep_freed_memory()
            os.close(requests[1])
            os.close(replies[0])
            _answer(serve, open(requests[0], "rb"), open(replies[1], "wb"))
            code = 0
        finally:
            os._exit(code)
    os.close(requests[0])
    os.close(replies[1])
    child = _Child(pid, open(requests[1], "wb"), open(replies[0], "rb"), name)
    try:
        if split:
            os.sched_setaffinity(0, {split[0]})
        yield child
    finally:
        child.close()
        if split:
            os.sched_setaffinity(0, split[1])


def pairs(worker, run, requests):
    """The results of every request, in order: for each pair, request 2i + 1
    goes to worker (what forked yields), the calling thread runs run on
    request 2i, and then the worker's reply to 2i + 1 is received. Whoever
    ran it, the first request that raises raises here, before any later
    result; a pair that raises on the calling thread leaves its reply for
    the worker's next send to drop."""
    for i in range(0, len(requests), 2):
        paired = i + 1 < len(requests)
        if paired:
            worker.send(requests[i + 1])
        yield run(requests[i])
        if paired:
            yield worker.receive()
