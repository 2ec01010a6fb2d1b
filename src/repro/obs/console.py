"""Console logging for campaign progress output.

The experiment drivers used to ``print()`` progress straight to
stdout.  That was fine until two constraints piled up:

- ``--quiet`` must silence progress without silencing results,
- worker-mode stdout is a machine protocol (`worker_main` redirects
  file descriptor 1 to stderr before experiment code runs) and no
  library print may leak into it.

:class:`Console` answers both with deliberately boring code — no
stdlib ``logging`` handlers/propagation machinery, just a quiet flag
and a ``print``.  Crucially it resolves ``sys.stdout`` **at call
time**, so it follows pytest's capsys redirection and, in worker
processes, lands on the (redirected) stderr instead of corrupting the
payload protocol.

``info`` goes to stdout (CI greps progress there) and is what
``--quiet`` silences; ``warning`` and ``error`` go to stderr and always
print.
"""

from __future__ import annotations

import sys


class Console:
    """A print with a quiet switch and call-time stream resolution."""

    def __init__(self) -> None:
        self.quiet = False

    def set_quiet(self, quiet: bool = True) -> None:
        """``--quiet``: progress off, warnings/errors still visible."""
        self.quiet = bool(quiet)

    def info(self, text: str = "") -> None:
        if not self.quiet:
            print(text, file=sys.stdout)

    def warning(self, text: str = "") -> None:
        print(text, file=sys.stderr)

    def error(self, text: str = "") -> None:
        print(text, file=sys.stderr)


_console = Console()


def set_quiet(quiet: bool = True) -> None:
    _console.set_quiet(quiet)


def info(text: str = "") -> None:
    _console.info(text)


def warning(text: str = "") -> None:
    _console.warning(text)


def error(text: str = "") -> None:
    _console.error(text)
