"""Fault-injection model builders for the query-service tests.

These live in an importable module (not inside test functions) so a
``QuerySpec`` can reference them by ``"tests.service_faults:name"``
and a worker — possibly a fresh ``spawn`` interpreter — can rebuild
them on its side of the process boundary.

The faulty builders misbehave at the *process* level on purpose:
``os._exit`` (no interpreter unwinding), an unbounded allocation loop,
and a hard hang.  They exercise exactly the failures PR 2's
cooperative budgets cannot contain.
"""

from __future__ import annotations

import os
import time

from repro import Bool, UInt, ZenFunction

MAGIC = 12345


def eq_model() -> ZenFunction:
    """Satisfiable query: find x with x == MAGIC."""
    return ZenFunction(lambda x: x == MAGIC, [UInt], name="eq-magic")


def unsat_model() -> ZenFunction:
    """Unsatisfiable query: no x is both 1 and 2."""
    return ZenFunction(lambda x: (x == 1) & (x == 2), [UInt], name="unsat")


def parity_model() -> ZenFunction:
    """Boolean model with branches, for generate_inputs specs."""
    from repro import if_

    return ZenFunction(
        lambda x: if_((x & 1) == 1, x > 100, x < 50),
        [UInt],
        name="parity",
    )


def is_even(x, result):
    """find predicate: the witness must be even and satisfy the model."""
    return result & ((x & 1) == 0)


def always_true(x, result):
    """verify invariant that holds for eq/unsat models' complement."""
    return (x == x)


def crash_model() -> ZenFunction:
    """Kills the worker with os._exit — no unwinding, no cleanup."""
    os._exit(42)


def hang_model() -> ZenFunction:
    """Wedges the worker forever (only SIGKILL gets it back)."""
    while True:
        time.sleep(0.05)


def oom_model() -> ZenFunction:
    """Allocates without bound until the RSS cap raises MemoryError."""
    hoard = []
    while True:
        hoard.append(bytearray(1 << 20))


def flaky_crash_model(flag_path: str) -> ZenFunction:
    """Crashes on the first call, succeeds once `flag_path` exists.

    The flag file is the cross-process memory that makes "fail once,
    then recover" deterministic regardless of which worker runs it.
    """
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as handle:
            handle.write(str(os.getpid()))
        os._exit(43)
    return eq_model()


def slow_eq_model(delay_s: float) -> ZenFunction:
    """:func:`eq_model` whose build holds a cold worker for `delay_s`."""
    time.sleep(delay_s)
    return eq_model()


def wait_for_file(flag_path: str, cap_s: float = 30.0) -> bool:
    """kind='call' target: hold the worker until `flag_path` exists.

    The test creates the file once everything it wants queued behind
    this call is queued, so no sleep has to be long enough.  Returns
    False after `cap_s` without the file, so a broken test cannot
    wedge the worker.
    """
    deadline = time.monotonic() + cap_s
    while not os.path.exists(flag_path):
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.005)
    return True


def error_model() -> ZenFunction:
    """Raises a benign in-worker exception (no crash, no hang).

    The worker must translate this to a structured error reply and
    keep its process — and warm cache — alive.
    """
    raise ValueError("deliberate benign failure inside the worker")


def unpicklable_answer():
    """kind='call' target whose result cannot cross the pipe."""
    return lambda x: x  # lambdas don't pickle


def unpicklable_error_model() -> ZenFunction:
    """Raises an exception whose structured reply cannot be pickled.

    ``describe_exception`` copies the exception's ``stats`` mapping
    into the reply verbatim; planting a live lambda there poisons the
    reply, so the worker's first ``conn.send`` fails *after* the query
    already failed.  The worker must then degrade to a reply that
    keeps the original exception's type and message, rather than
    dying or masking the failure as an answer-pickling problem.
    """
    error = ValueError("deliberate failure carrying unpicklable state")
    error.stats = {"live_handle": lambda: None}
    raise error


def xor_model(key: int) -> ZenFunction:
    """A distinct transformer per key whose relation is the same size."""
    return ZenFunction(lambda x: x ^ key, [UInt], name=f"xor-{key}")


def add_numbers(a: int, b: int) -> int:
    """kind='call' baseline-style check returning plain data."""
    return a + b
