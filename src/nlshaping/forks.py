"""Independent tasks on every usable CPU: the caller and forked workers.

``forked_map(task, count)`` gives ``[task(i) for i in range(count)]``,
bit for bit. It shares the tasks among w processes, one per usable CPU
and at most one per task: task i runs in share i mod w, the caller
computes share 0 and a forked process each other share. The rules:

- The tasks run serially in the caller (w = 1) on one usable CPU (a
  platform without ``os.sched_getaffinity`` counts one), when other
  Python threads are alive (forking a threaded process is unsafe), and
  when the caller is a daemonic process, which may not start processes,
  as in a ``multiprocessing.Pool`` worker.
- A share whose process cannot be started (no process or pipe to be
  had) is computed by the caller too.
- A failing task raises its own exception, that of the lowest failing
  index, as the serial loop does.

``multiprocessing`` is imported only when a batch forks, not with this
module.
"""

from __future__ import annotations

import os
import threading


def _fork_count(tasks: int) -> int:
    """Processes to share ``tasks`` tasks, by the rules of this module."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = max(1, min(tasks, cpus)) if threading.active_count() == 1 else 1
    if workers > 1:
        import multiprocessing

        if multiprocessing.current_process().daemon:
            return 1
    return workers


def _share(task, count: int, first: int, stride: int):
    """Tasks ``first``, ``first + stride``, ... up to the first that raises:
    (results, None) or (results, (index, exception))."""
    results = []
    for i in range(first, count, stride):
        try:
            results.append(task(i))
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _send_share(conn, *share_args) -> None:
    """Body of a forked worker: its share of the tasks, sent to the caller.
    The pipe closes when the worker exits, with or without a result."""
    conn.send(_share(*share_args))


def _start_worker(ctx, task, count: int, first: int, stride: int):
    """A forked process that sends share ``first`` of ``stride``, and the
    pipe end it sends on; neither pipe end stays open if the start fails."""
    recv, send = ctx.Pipe(duplex=False)
    try:
        proc = ctx.Process(target=_send_share, daemon=True,
                           args=(send, task, count, first, stride))
        proc.start()
    except BaseException:
        recv.close()
        raise
    finally:
        send.close()
    return proc, recv


def forked_map(task, count: int) -> list:
    """``[task(i) for i in range(count)]`` on the caller and forked
    workers, by the rules of this module. Every process is joined before
    this returns or raises; an exception in the caller, such as an
    interrupt, ends the workers at once."""
    workers = _fork_count(count)
    procs = []
    received = False
    try:
        if workers > 1:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            for k in range(1, workers):
                try:
                    procs.append(_start_worker(ctx, task, count, k, workers))
                except OSError:
                    # EAGAIN, ENOMEM or EMFILE: the caller takes this share
                    # and the ones after it.
                    break
        local = [0, *range(len(procs) + 1, workers)]
        shares = {k: _share(task, count, k, workers) for k in local}
        for k, (proc, recv) in enumerate(procs, start=1):
            try:
                shares[k] = recv.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"worker for tasks {k}::{workers} of {count} exited with code "
                    f"{proc.exitcode} before sending its results"
                ) from None
        received = True
    finally:
        for proc, recv in procs:
            if not received:
                proc.terminate()
            proc.join()
            proc.close()
            recv.close()

    errors = [error for _, error in shares.values() if error is not None]
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    out = [None] * count
    for k, (results, _) in shares.items():
        out[k::workers] = results
    return out
