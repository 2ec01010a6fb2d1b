"""Cooperative wall-clock budgets for trace-driven experiments.

A :class:`Budget` bounds how long one experiment may run.  Enforcement
is *cooperative* (no signals, no threads): the engine installs the
budget as the ambient budget (:func:`activate`), and the simulators in
:mod:`repro.mem` poll it between units of work (every kernel chunk,
depth pass, coherence window or interleaving round), raising
:class:`~repro.runtime.errors.BudgetExceeded` once the deadline passes.
A hang (or a full-size experiment that is simply too large for its
budget) therefore surfaces as an ordinary, catchable exception, which
the engine converts into a degraded retry.

The clock is injectable so tests can drive deadlines deterministically
without sleeping.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Iterator, Optional

from repro.runtime.errors import BudgetExceeded


class Budget:
    """A wall-clock allowance for one unit of work.

    Args:
        seconds: Allowance in seconds; ``None`` means unlimited (checks
            never raise).
        clock: Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds <= 0:
            raise ValueError(f"budget seconds must be positive (got {seconds})")
        self.seconds = seconds
        self._clock = clock
        self._started = clock()

    @classmethod
    def unlimited(cls) -> "Budget":
        return cls(None)

    @property
    def started(self) -> float:
        return self._started

    def restart(self) -> None:
        """Reset the deadline to ``seconds`` from now."""
        self._started = self._clock()

    def elapsed(self) -> float:
        return self._clock() - self._started

    def remaining(self) -> Optional[float]:
        """Seconds left, or ``None`` when unlimited."""
        if self.seconds is None:
            return None
        return self.seconds - self.elapsed()

    def exceeded(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self, context: str = "") -> None:
        """Raise :class:`BudgetExceeded` if the deadline has passed."""
        if self.exceeded():
            where = f" in {context}" if context else ""
            raise BudgetExceeded(
                f"wall-clock budget of {self.seconds:.3g}s exceeded"
                f"{where} (elapsed {self.elapsed():.3g}s)"
            )

    def __repr__(self) -> str:
        limit = "unlimited" if self.seconds is None else f"{self.seconds:.3g}s"
        return f"Budget({limit}, elapsed={self.elapsed():.3g}s)"


#: The ambient budget consulted by the simulators.  A plain
#: module-level slot (not a contextvar): the campaign engine is
#: single-threaded by design, and the simulators read it cheaply.
_active: Optional[Budget] = None


def active_budget() -> Optional[Budget]:
    """The currently installed budget, or ``None``."""
    return _active


@contextlib.contextmanager
def activate(budget: Optional[Budget]) -> Iterator[Optional[Budget]]:
    """Install ``budget`` as the ambient budget for the dynamic extent.

    Nests: the previous ambient budget is restored on exit.
    """
    global _active
    previous = _active
    _active = budget
    try:
        yield budget
    finally:
        _active = previous


def check_active_budget(context: str = "") -> None:
    """Poll the ambient budget (no-op when none is installed)."""
    if _active is not None:
        _active.check(context)
