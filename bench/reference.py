"""The reference kernel: a fixed computation that no framelab code runs in.

The benchmark's machine is a few cores of a shared host, and its speed moves
by a third or more for seconds to minutes as other tenants load it; process
CPU time moves with wall time, so the slowdown is in the cores themselves.
The loop therefore times this kernel between jobs, and reports each job's
time as a multiple of the kernel times measured just before and just after
it (unit ``ref``).  Both slow down together, so the ratio keeps what the
program costs and drops most of what the host's load adds.

The kernel mixes the three kinds of work framelab's jobs do: interpreter
work on small containers and strings (parsing, rendering, bookkeeping),
LAPACK calls on small dense matrices, and vectorized array work over
thousands of rows (the subset sweeps).  It takes about 2.5 ms on one core
of a recent x86 server.  Nothing in it may change once figures are compared
across commits.
"""
from __future__ import annotations

import json
import time

import numpy as np

_RNG = np.random.Generator(np.random.PCG64(20180101))
_SYM = [m + m.T for m in (_RNG.standard_normal((n, n)) for n in (4, 8, 12))]
_MASKS = (_RNG.random((4096, 12)) < 0.5).astype(float)
_ROWS = _RNG.standard_normal((12, 6))
_RECORDS = [{"name": f"member_{i}", "weight": 0.5 + i / 7.0, "dims": [i % 5, i % 3 + 1],
             "tags": ["real" if i % 2 else "complex", str(i)]} for i in range(40)]


def kernel() -> float:
    """Run the kernel once; returns a checksum so no part of it can be skipped."""
    acc = 0.0
    for _ in range(3):
        text = json.dumps(_RECORDS, sort_keys=True, separators=(",", ":"))
        acc += sum(r["weight"] for r in json.loads(text))
    for m in _SYM:
        for _ in range(6):
            acc += float(np.linalg.eigvalsh(m)[-1])
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
            acc += float(np.linalg.norm(m @ m, 2))
    for _ in range(4):
        lhs = np.linalg.norm(_MASKS @ _ROWS, axis=1)
        acc += float(np.max(lhs - np.sqrt(_MASKS @ np.abs(_ROWS[:, 0]))))
    return acc


def kernel_s() -> float:
    """Wall time of one kernel run, in seconds."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
