"""Time the Q(sqrt2) kernel on operands taken from a workload's coordinates.

Usage: python3 probe.py SEED LITERAL...

Each LITERAL is a coordinate value as ``gyrolab.qfield.parse`` reads it.  The
operands are those values and their pairwise differences (what the hull's
edge vectors hold); SEED draws the operand pairs.  Prints one JSON object
with nanoseconds per ``*``, ``+``, ``sign()`` and ``hash()``, each the median
of several timed sweeps.
"""

import json
import random
import statistics
import sys
import time

PAIRS = 4000
SWEEPS = 7


def _ns_per_op(fn, pairs):
    times = []
    for _ in range(SWEEPS):
        t0 = time.perf_counter_ns()
        fn(pairs)
        times.append((time.perf_counter_ns() - t0) / len(pairs))
    return statistics.median(times)


def _mul(pairs):
    for x, y in pairs:
        x * y


def _add(pairs):
    for x, y in pairs:
        x + y


def _sign(pairs):
    for x, _ in pairs:
        x.sign()


def _hash(pairs):
    for x, _ in pairs:
        hash(x)


def main(seed, literals):
    from gyrolab import qfield

    values = sorted({qfield.parse(t) for t in literals})
    operands = values + [a - b for a in values for b in values if a != b]
    rng = random.Random(seed)
    pairs = [(rng.choice(operands), rng.choice(operands)) for _ in range(PAIRS)]
    result = {f"{name}_ns": _ns_per_op(fn, pairs)
              for name, fn in (("mul", _mul), ("add", _add), ("sign", _sign), ("hash", _hash))}
    print(json.dumps(result))


if __name__ == "__main__":
    main(int(sys.argv[1]), sys.argv[2:])
