"""Retry and circuit-breaker policies for the serving stack.

Two small, deterministic-on-demand primitives the routing service wires
around its backend:

* :class:`RetryPolicy` — exponential backoff with **full jitter**
  (AWS-style: each delay is drawn uniformly from ``[0, min(cap,
  base·2^attempt)]``), bounded by both an attempt count and the
  request's remaining deadline budget.  Only
  :class:`~repro.exceptions.TransientBackendError` failures are
  retryable; semantic outcomes (``NoPathError``) and programming errors
  propagate immediately.
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine.  After ``failure_threshold`` consecutive backend failures the
  breaker *opens* and fails calls fast with
  :class:`~repro.exceptions.CircuitOpenError` (no backend work).  After ``reset_timeout`` seconds one probe is let
  through (*half-open*); success closes the breaker, failure re-opens
  it.

Both take an injectable clock/sleep/rng so the chaos soak and the tests
can drive them deterministically; production defaults use
``time.monotonic`` / ``time.sleep`` / a seeded :class:`random.Random`.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Callable

from repro.exceptions import CircuitOpenError, TransientBackendError

__all__ = ["RetryPolicy", "CircuitBreaker"]


class RetryPolicy:
    """Exponential backoff with full jitter and a deadline-aware budget.

    Parameters
    ----------
    max_attempts:
        Total tries including the first (``1`` disables retries).
    base_delay:
        Backoff base in seconds; attempt *i* (0-based) draws its delay
        from ``[0, min(max_delay, base_delay * 2**i)]``.
    max_delay:
        Cap on any single delay.
    seed:
        Seed for the jitter RNG (deterministic schedules for soaks).
    sleep:
        Injectable sleep for tests; defaults to :func:`time.sleep`.

    Example
    -------
    >>> policy = RetryPolicy(max_attempts=3, base_delay=0.1, seed=7)
    >>> [round(policy.delay(i), 3) <= 0.1 * 2**i for i in range(3)]
    [True, True, True]
    """

    def __init__(
        self,
        max_attempts: int = 3,
        base_delay: float = 0.01,
        max_delay: float = 0.25,
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be >= 0")
        self.max_attempts = max_attempts
        self.base_delay = base_delay
        self.max_delay = max_delay
        self._sleep = sleep
        self._lock = threading.Lock()
        self._rng = random.Random(seed)

    def delay(self, attempt: int) -> float:
        """The jittered backoff before retry *attempt* (0-based)."""
        cap = min(self.max_delay, self.base_delay * (2**attempt))
        with self._lock:
            return self._rng.uniform(0.0, cap)

    def call(
        self,
        fn: Callable[[], object],
        deadline: float | None = None,
        clock: Callable[[], float] = time.monotonic,
        on_retry: Callable[[int, BaseException], None] | None = None,
    ):
        """Invoke *fn*, retrying transient failures within the budget.

        *deadline* is an absolute ``clock()`` instant; a retry whose
        backoff would land past it is abandoned and the last transient
        error re-raised (the caller's deadline machinery turns that into
        a :class:`~repro.exceptions.DeadlineExceeded` as appropriate).
        *on_retry* is called with ``(attempt, error)`` before each sleep
        — the service uses it to count retries in metrics.
        """
        attempt = 0
        while True:
            try:
                return fn()
            except TransientBackendError as exc:
                attempt += 1
                if attempt >= self.max_attempts:
                    raise
                pause = self.delay(attempt - 1)
                if deadline is not None and clock() + pause >= deadline:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                if pause > 0:
                    self._sleep(pause)


class CircuitBreaker:
    """Closed → open → half-open breaker around a routing backend.

    Parameters
    ----------
    failure_threshold:
        Consecutive transient failures that open the breaker.
    reset_timeout:
        Seconds the breaker stays open before letting a probe through.
    clock:
        Injectable monotonic clock (soaks drive this deterministically).
    on_transition:
        Optional ``(old_state, new_state)`` callback — the chaos soak
        records the sequence to assert the open/half-open/close schedule.

    Thread safety: all state changes happen under an internal lock, so
    every thread calling one service shares one instance.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        on_transition: Callable[[str, str], None] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be > 0")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._failures

    def _transition(self, new_state: str) -> None:
        old_state, self._state = self._state, new_state
        if old_state != new_state and self._on_transition is not None:
            self._on_transition(old_state, new_state)

    def before_call(self) -> None:
        """Admission check; raises :class:`CircuitOpenError` when open.

        When the reset timeout has elapsed the breaker moves to
        half-open and admits exactly one probe; concurrent calls keep
        failing fast until the probe reports back.
        """
        with self._lock:
            if self._state == self.CLOSED:
                return
            now = self._clock()
            if self._state == self.OPEN:
                remaining = self._opened_at + self.reset_timeout - now
                if remaining > 0:
                    raise CircuitOpenError(remaining)
                self._transition(self.HALF_OPEN)
                self._probe_in_flight = True
                return
            # Half-open: one probe at a time.
            if self._probe_in_flight:
                raise CircuitOpenError(self.reset_timeout)
            self._probe_in_flight = True

    def record_success(self) -> None:
        """The backend answered (including a definitive ``NoPathError``)."""
        with self._lock:
            self._failures = 0
            self._probe_in_flight = False
            if self._state != self.CLOSED:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        """The backend failed transiently."""
        with self._lock:
            self._probe_in_flight = False
            if self._state == self.HALF_OPEN:
                self._opened_at = self._clock()
                self._transition(self.OPEN)
                return
            self._failures += 1
            if self._state == self.CLOSED and self._failures >= self.failure_threshold:
                self._opened_at = self._clock()
                self._transition(self.OPEN)
