"""Deterministic batched random streams and fast vectorized normals.

Monte Carlo estimators in this package draw paths in fixed-size batches.
Each batch owns an independent generator keyed by (seed, stream tag, batch
index) through SeedSequence, and `map_batches` runs the batches, in this
process or spread over forked worker processes, and hands back their
results in batch order for the caller to reduce, so every estimate is a
pure function of (seed, n_paths) no matter how many workers ran it.

Normals come from a vectorized Box-Muller transform over float32 uniforms
rather than Generator.standard_normal: the ziggurat path is several times
slower per value in this numpy build, and the transform's float32 tail
truncation (|z| <= 5.8 sigma, missing mass ~1e-8) is orders of magnitude
below any tolerance used here.  `fill_normals` reads the uniforms' bits
straight from the bit generator's raw 64-bit words (`random_raw`), about
twice as fast as `Generator.random(dtype=np.float32)`, and gives the same
values: numpy makes each float32 as (next_uint32 >> 8) * 2**-24, and
SFC64's next_uint32 hands out a word's low half, then buffers its high
half for the next call, which is the words' uint32 view in order.  The
raw route skips that buffer, so it holds only while the buffer is empty:
each call consumes whole words (2k halves for 2k normals), and nothing
else draws 32-bit values from these generators (float64 uniforms take
whole words and leave the buffer alone).
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
import traceback

import numpy as np

from eigenwalk.geometry import _number

_TILE = 16384  # raw words per fill_normals tile: 128 KB of bits
_ULP = np.float32(2.0 ** -24)  # one unit of a 24-bit float32 draw
_ANGLE_ULP = np.float32(2.0 * math.pi) * _ULP  # exact: a power-of-two scaling
_log = logging.getLogger("eigenwalk")
_said_serial = False  # the no-fork fallback is logged once per process


def batch_rng(seed: int, tag: int, batch_index: int) -> np.random.Generator:
    """Independent generator for one (seed, stream, batch) triple."""
    ss = np.random.SeedSequence([seed, tag, batch_index])
    return np.random.Generator(np.random.SFC64(ss))


def map_batches(job, n_batches: int, threads: int) -> list:
    """[job(0), ..., job(n_batches - 1)], in batch order, computed by
    min(threads, n_batches) worker processes, threads a positive integer.

    Worker w runs batches w, w + T, w + 2T, ... of T workers.  This process
    is worker 0; the others are forked children that send their results
    (or the exception a job raised) back pickled through a pipe, so a job
    may be a closure but its results must pickle.  The walker steps in
    many short numpy calls and would take turns on the interpreter lock
    as threads; processes do not share it.  Forking, not spawning, keeps
    the domain tables and the job itself shared copy-on-write.

    A job's exception is raised here with its type and message, chained
    to the worker's traceback; a worker that dies without a result raises
    RuntimeError.  Every child is reaped before this returns or raises.
    Forking is not safe from several threads at once, so do not call this
    with threads > 1 from more than one thread.  Without os.fork the
    batches run here one after another, which is logged once at INFO.
    """
    workers = min(_number("threads", threads, integer=True), n_batches)
    if workers > 1 and not hasattr(os, "fork"):
        global _said_serial
        if not _said_serial:
            _said_serial = True
            _log.info("os.fork is not available: path batches run serially "
                      "in this process, whatever the worker count")
        workers = 1
    if workers <= 1:
        return [job(b) for b in range(n_batches)]

    children = []  # (worker, pid, read end of its pipe)
    out = [None] * n_batches
    finished = False
    try:
        for w in range(1, workers):
            rfd, wfd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(rfd)
                os.close(wfd)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(rfd)
                    _send_share(job, range(w, n_batches, workers), wfd)
                    code = 0
                finally:
                    os._exit(code)  # never return into the caller's stack
            os.close(wfd)
            children.append((w, pid, rfd))
        for b in range(0, n_batches, workers):
            out[b] = job(b)
        finished = True
    finally:
        if not finished:  # this process failed: stop the others' work
            for _, pid, _ in children:
                os.kill(pid, signal.SIGKILL)
        shares = [_reap(*child) for child in children]
    for (w, _, _), (ok, payload, tb) in zip(children, shares):
        if not ok:
            cause = RuntimeError(f"in batch worker {w}:\n{tb}") if tb else None
            raise payload from cause
        out[w::workers] = payload
    return out


def _send_share(job, batches, wfd: int) -> None:
    """In a forked worker: run its batches and write one pickled
    (ok, results or exception, traceback text) record to the pipe."""
    try:
        rec = (True, [job(b) for b in batches], "")
    except BaseException as exc:
        rec = (False, exc, traceback.format_exc())
    try:
        data = pickle.dumps(rec)
        if not rec[0]:
            pickle.loads(data)  # an exception that will not rebuild
    except Exception as err:
        what = rec[1] if not rec[0] else "the results"
        data = pickle.dumps((False, RuntimeError(
            f"batch worker cannot send {what!r}: {err}"), rec[2]))
    view = memoryview(data)
    while view:
        view = view[os.write(wfd, view):]
    os.close(wfd)


def _reap(w: int, pid: int, rfd: int):
    """Read worker w's record to EOF, then wait for it; (ok, payload, tb)."""
    chunks = []
    try:
        while chunk := os.read(rfd, 1 << 20):
            chunks.append(chunk)
    finally:
        os.close(rfd)
        _, status = os.waitpid(pid, 0)
    if status == 0 and chunks:
        return pickle.loads(b"".join(chunks))
    how = (f"signal {os.WTERMSIG(status)}" if os.WIFSIGNALED(status)
           else f"exit status {os.waitstatus_to_exitcode(status)}")
    return False, RuntimeError(f"batch worker {w} (pid {pid}) ended by "
                               f"{how} without sending a result"), ""


def fill_normals(rng: np.random.Generator, out_flat: np.ndarray,
                 scale: float = 1.0) -> None:
    """Fill a flat float32 array of even length 2k with N(0, scale^2)
    samples: za = out_flat[:k] and zb = out_flat[k:].

    The bits are k raw 64-bit words of rng's bit generator, read as 2k
    uint32 halves, low half first: half i < k gives radius i and half
    k + i angle i (at odd k one word holds the last radius and the first
    angle).  The words are drawn and finished _TILE at a time; radii are
    kept in za until their angles turn them into za and zb.
    """
    k = out_flat.size // 2
    gen = rng.bit_generator
    neg2s2 = np.float32(-2.0 * scale * scale)
    for lo in range(0, 2 * k, 2 * _TILE):  # half positions [lo, hi)
        hi = min(lo + 2 * _TILE, 2 * k)
        x = gen.random_raw((hi - lo) // 2).view(np.uint32)
        x >>= 8  # the float32 draw's 24 bits
        x = x.view(np.int32)  # below 2**24: int32 converts to float faster
        cut = min(max(k - lo, 0), hi - lo)  # radii before it, angles after
        if cut:
            xr = x[:cut]
            r = out_flat[lo:lo + cut]
            np.subtract(1 << 24, xr, out=xr)  # 2**24 (1 - u) > 0: no log(0)
            r[...] = xr  # exact: an integer in (0, 2**24]
            r *= _ULP
            np.log(r, out=r)
            r *= neg2s2
            np.sqrt(r, out=r)
        if cut < hi - lo:
            i = lo + cut - k  # first angle index of this tile
            th = x[cut:].astype(np.float32)
            th *= _ANGLE_ULP  # = (th * 2**-24) * float32(2 pi): one rounding
            za = out_flat[i:hi - k]  # radius i first, then cos * radius
            zb = out_flat[k + i:hi]
            np.sin(th, out=zb)
            zb *= za
            np.cos(th, out=th)
            np.multiply(th, za, out=za)


class NormalChunks:
    """Reusable output buffer for (k, n, m)-shaped float32 normal
    increments, reallocated only when the requested shape grows.  An odd
    total is padded by one normal, so each draw consumes whole words."""

    def __init__(self):
        self._flat = np.empty(0, dtype=np.float32)

    def draw(self, rng: np.random.Generator, k: int, n: int, m: int,
             scale: float) -> np.ndarray:
        total = k * n * m
        size = total + (total & 1)
        if self._flat.size < size:
            self._flat = np.empty(size, dtype=np.float32)
        flat = self._flat[:size]
        fill_normals(rng, flat, scale)
        return flat[:total].reshape(k, n, m)
