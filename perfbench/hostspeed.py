"""Host speed correction for timings taken on a shared machine.

On a machine shared with other tenants, the same Python code runs up to
about twice as slow for stretches of seconds to minutes, which swamps the
differences a benchmark is meant to show. The harness therefore times a
fixed reference loop right before and after every timed call and scales the
call's wall time by ``NOMINAL_S`` over the mean of the two reference times:
a call is reported in seconds at the host speed at which the reference loop
takes ``NOMINAL_S``. The loop mixes the kinds of work balrig does: F_p row
updates as in elimination, and hashing, allocation and JSON as in face sets
and the CLI, so it slows down with the same contention as the code measured.
Nothing in it depends on balrig, so a change to balrig cannot move it.

In scratch probes on a 2-vCPU x86-64 VM, the quartile distance over the
median of per-round call rates fell from 7-12% raw to 2-4% corrected.
"""

from __future__ import annotations

import itertools
import json
import random
import time

_P = (1 << 62) - 57
_ROW = tuple(random.Random(0).randrange(_P) for _ in range(64))
_REPS = 15
_FACETS = tuple(tuple(sorted(random.Random(i).sample(range(12), 4))) for i in range(12))

#: Duration of ``reference_seconds()`` on a quiet 2-vCPU x86-64 VM under
#: CPython 3.11 (its fastest passes there take 0.00048 s). Only a scale.
NOMINAL_S = 0.0005


def reference_seconds() -> float:
    """Wall time of one pass of the fixed reference loop."""
    t0 = time.perf_counter()
    row, prow = list(_ROW), _ROW[::-1]
    for i in range(_REPS):
        f = row[i % 64] | 1
        row = [(a - f * b) % _P for a, b in zip(row, prow)]
    faces = set()
    for facet in _FACETS:
        for r in range(len(facet) + 1):
            faces.update(frozenset(c) for c in itertools.combinations(facet, r))
    index = {f: i for i, f in enumerate(sorted(faces, key=sorted))}
    json.loads(json.dumps({"faces": [sorted(f) for f in index]}))
    return time.perf_counter() - t0
