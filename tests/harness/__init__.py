"""Test-only attack harnesses for the campaign runtime.

- :mod:`tests.harness.iofault` — the deterministic I/O fault injector,
  armed through :data:`repro.runtime.records.io_hook`;
- :mod:`tests.harness.faulty` — failing experiment runners (crash,
  hang, hang-hard, memhog, die) registered in place of real
  experiments;
- :mod:`tests.harness.chaos` — the SIGKILL/resume and disk-fault chaos
  gate over real CLI processes;
- :mod:`tests.harness.fuzz` — seeded fuzzing of the artifact readers;
- :mod:`tests.harness.loops` — the per-reference loops the kernels
  are held to, and ``loops_only`` to run every simulator on them;
- :mod:`tests.harness.corpus` and :mod:`tests.harness.differential` —
  the pinned trace corpus and the simulator cross-checks run over it;
- :mod:`tests.harness.cli` — ``python -m tests.harness.cli``, the real
  campaign CLI with the injector and the faulty runners armed, plus
  the ``chaos`` and ``fuzz`` gates.
"""
