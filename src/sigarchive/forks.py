"""Forked workers with a pipe each: ``build --workers`` builds sibling subtrees
with :func:`fork_map`, and a large feature table is read in byte ranges with it."""

import os

from .errors import SigArchiveError


def fork_map(func, jobs: list, processes: int, lost: str) -> list:
    """``[func(*job) for job in jobs]`` in ``processes`` forked workers.

    Worker ``i`` runs jobs ``i``, ``i + processes``, ... and sends its
    results, or its exception, back through a pipe of its own.  Sharing no
    queue or lock, a worker killed mid-job raises ``SigArchiveError(lost)``
    instead of stalling the caller.  Kills stay blocked until the workers
    exist to be stopped, and while they are killed and reaped, as they are
    however this ends.
    """
    import pickle
    import signal

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
    pids, pipes = [], []
    try:
        for i in range(processes):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _worker(func, jobs[i::processes], read, write, mask)  # never returns
            pids.append(pid)
            os.close(write)
            pipes.append(open(read, "rb"))
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        results = []
        for pipe in pipes:
            try:
                ok, value = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                raise SigArchiveError(lost) from None
            if not ok:
                raise value
            results.append(value)
        return [results[i % processes][i // processes] for i in range(len(jobs))]
    finally:  # a second signal waits until every worker is reaped
        signal.pthread_sigmask(signal.SIG_BLOCK, (signal.SIGINT, signal.SIGTERM))
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _worker(func, jobs: list, read: int, write: int, mask) -> None:
    """A worker of :func:`fork_map`.  It ignores SIGINT (an interrupt stops
    the parent, which stops the workers), dies by SIGTERM, and gets one from
    Linux if the parent dies.  It writes ``(True, results)`` or
    ``(False, exception)`` to ``write``, and exits."""
    code = 1
    try:
        import ctypes
        import pickle
        import signal

        os.close(read)
        prctl = ctypes.CDLL(None, use_errno=True).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            payload = True, [func(*job) for job in jobs]
        except Exception as exc:
            payload = False, exc
        with open(write, "wb") as pipe:
            pickle.dump(payload, pipe)
        code = 0
    finally:
        os._exit(code)
