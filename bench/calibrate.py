"""Host-speed calibration: fixed chunks of work timed between jobs.

The benchmark runs on a few vCPUs of a shared host.  Two kinds of
contention move its timings, and each is removed separately:

- Other processes in the same guest take turns with the benchmark on
  its vCPU, and the host deschedules the vCPU now and then.  That
  stretches wall time but barely the benchmark's own CPU time, so jobs
  are timed in process CPU time.
- The host also runs each vCPU slower or faster on its own, with no
  steal time visible to the guest.  On the reference host each vCPU
  spent from none to most of its time in slow spells of a fraction of a
  second to minutes.  That stretches CPU time too and cannot be seen
  from inside; it can only be measured alongside the program.

The slow spells do not slow all code alike.  In one 100 s sample, with
the vCPU slow about half the time, numpy calls on ~35-element arrays ran
1.8x slower in them, a plain integer loop 1.3x, streaming over arrays of
400 000 rows 1.2x; the workloads' jobs ran 1.7-1.8x (`verify`, per-point
geometry) and 1.4x (large gap batches) slower.  So each job names the
chunk whose kind of work it resembles, and its CPU time is scaled by the
mean of that chunk's times just before and just after it:

- `interp`: numpy calls on ~35-element arrays and plain interpreted
  arithmetic, about 2:1 in time.  Scaled by it, `verify` and per-point
  geometry jobs ran 0.98-1.03x as long in slow spells as outside them.
- `stream`: element-wise passes over arrays of 400 000 rows.  Scaled by
  it, gap-batch jobs ran 0.95x as long.
- `launch`: a fresh interpreter that imports what geofrac imports, but
  not geofrac, for the set-up launches.  Starting an interpreter (page
  faults, shared objects, unmarshalling modules) slows more than either
  chunk does.

None of them runs geofrac code, so a change to the program cannot move
them.  Scaled times read as CPU seconds on a host where each takes its
`REF_S`.
"""

from __future__ import annotations

import time

import numpy as np

# CPU times on the reference host (2-vCPU KVM guest, Xeon family 6
# model 143, Python 3.11, numpy 2.4) outside slow spells: chunks timed
# between jobs, and the reference launch
REF_S = {"interp": 0.003, "stream": 0.0025, "launch": 0.12}

# the reference launch: geofrac's imports and one small numpy call; it
# prints 17.5
LAUNCH_SCRIPT = """
import argparse, csv, dataclasses, io, json, math, re, sys, typing
import numpy as np
print(float(np.linspace(0.0, 1.0, 35).sum()))
"""

_X = np.linspace(0.0, 1.0, 35)
_W = np.full(35, 1.0 / 35.0)
_ROWS = np.linspace(1.0, 2.0, 400_000)
# written in place: a fresh 3 MB temporary would be served by mmap or by
# the heap depending on what the program freed before, and so time the
# program's memory use instead of the host
_BUF = np.empty_like(_ROWS)


def interp() -> float:
    """Run the interpreter-bound chunk once; returns its CPU seconds."""
    t0 = time.process_time()
    acc = 0.0
    for k in range(400):
        y = np.sin(_X * (k + 1.0)) * np.exp(-_X)
        acc += float(y @ _W)
    s = 0
    for i in range(13_000):
        s += i * i % 7
    if not acc + s > 0.0:
        raise RuntimeError("calibration chunk produced a bad value")
    return time.process_time() - t0


def stream() -> float:
    """Run the array-streaming chunk once; returns its CPU seconds."""
    t0 = time.process_time()
    for _ in range(2):
        np.multiply(_ROWS, _ROWS, out=_BUF)
        np.add(_BUF, 1.0, out=_BUF)
        np.sqrt(_BUF, out=_BUF)
    if not float(_BUF[-1]) > 0.0:
        raise RuntimeError("calibration chunk produced a bad value")
    return time.process_time() - t0


CHUNKS = {"interp": interp, "stream": stream}


def scale(kind: str, before: float, after: float) -> float:
    """Factor that turns CPU time measured between two calibration times
    of `kind` into reference seconds."""
    return 2.0 * REF_S[kind] / (before + after)
