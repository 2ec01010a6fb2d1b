"""Leveled console logging for campaign progress output.

The experiment drivers used to ``print()`` progress straight to
stdout.  That was fine until three constraints piled up:

- ``--quiet`` must silence progress without silencing results,
- ``REPRO_LOG_LEVEL`` must control verbosity for cron/CI wrappers,
- worker-mode stdout is a machine protocol (`worker_main` redirects
  file descriptor 1 to stderr before experiment code runs) and no
  library print may leak into it.

:class:`Console` answers all three with deliberately boring code — no
stdlib ``logging`` handlers/propagation machinery, just a level check
and a ``print``.  Crucially it resolves ``sys.stdout`` **at call
time**, so it follows pytest's capsys redirection and, in worker
processes, lands on the (redirected) stderr instead of corrupting the
payload protocol.

Levels: ``debug`` < ``info`` < ``warning`` < ``error``.  ``info`` and
below go to stdout (CI greps progress there); ``warning`` and above go
to stderr.  Default level is ``info``; ``REPRO_LOG_LEVEL=debug``
opens the firehose and ``--quiet`` maps to ``warning``.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, TextIO

LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

LEVELS = {
    "debug": 10,
    "info": 20,
    "warning": 30,
    "error": 40,
    "quiet": 100,  # alias: suppress everything below error... see --quiet
}

DEFAULT_LEVEL = "info"


def _resolve_level(name: Optional[str]) -> int:
    if not name:
        return LEVELS[DEFAULT_LEVEL]
    return LEVELS.get(name.strip().lower(), LEVELS[DEFAULT_LEVEL])


class Console:
    """A print with a level gate and call-time stream resolution."""

    def __init__(self, level: Optional[str] = None) -> None:
        env_level = os.environ.get(LOG_LEVEL_ENV)
        self.level = _resolve_level(level if level is not None else env_level)

    # -- configuration -------------------------------------------------

    def set_level(self, name: str) -> None:
        self.level = _resolve_level(name)

    def set_quiet(self, quiet: bool = True) -> None:
        """``--quiet``: progress off, warnings/errors still visible."""
        self.level = LEVELS["warning"] if quiet else _resolve_level(
            os.environ.get(LOG_LEVEL_ENV)
        )

    def is_enabled(self, name: str) -> bool:
        return LEVELS.get(name, 0) >= self.level

    # -- emission ------------------------------------------------------

    def _emit(self, text: str, stream: TextIO) -> None:
        print(text, file=stream)

    def debug(self, text: str = "") -> None:
        if self.level <= LEVELS["debug"]:
            self._emit(text, sys.stdout)

    def info(self, text: str = "") -> None:
        if self.level <= LEVELS["info"]:
            self._emit(text, sys.stdout)

    def warning(self, text: str = "") -> None:
        if self.level <= LEVELS["warning"]:
            self._emit(text, sys.stderr)

    def error(self, text: str = "") -> None:
        if self.level <= LEVELS["error"]:
            self._emit(text, sys.stderr)


_console = Console()


def set_level(name: str) -> None:
    _console.set_level(name)


def set_quiet(quiet: bool = True) -> None:
    _console.set_quiet(quiet)


def debug(text: str = "") -> None:
    _console.debug(text)


def info(text: str = "") -> None:
    _console.info(text)


def warning(text: str = "") -> None:
    _console.warning(text)


def error(text: str = "") -> None:
    _console.error(text)
