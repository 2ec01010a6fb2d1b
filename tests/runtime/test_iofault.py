"""Tests for the I/O fault injector (tests/harness/iofault.py) and the
shared atomic write of repro.runtime.records."""

from __future__ import annotations

import errno
import os

import pytest

from repro.runtime import records
from repro.runtime.records import (
    atomic_write_bytes,
    atomic_write_text,
    check_io,
    io_write,
)

from tests.harness.iofault import (
    IOFAULT_ENV,
    IOFault,
    IOFaultInjector,
    active_injector,
    install,
    install_from_env,
)


def no_tmp_litter(directory) -> bool:
    return not [p for p in directory.iterdir() if p.name.endswith(".tmp")]


class TestSpecParsing:
    def test_full_spec(self):
        fault = IOFault.parse("journal:write:kill:3")
        assert (fault.site, fault.op, fault.kind, fault.nth) == (
            "journal", "write", "kill", 3,
        )
        assert not fault.repeat

    def test_defaults_and_repeat(self):
        assert IOFault.parse("checkpoint:fsync:eio").nth == 1
        assert IOFault.parse("*:*:enospc:2:repeat").repeat

    @pytest.mark.parametrize(
        "spec", ["journal", "a:write:bogus", "a:poke:eio", "a:write:eio:0"]
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(ValueError):
            IOFault.parse(spec)

    def test_injector_parses_comma_separated_list(self):
        injector = IOFaultInjector.parse("journal:write:eio:1,lease:fsync:eio:2")
        assert len(injector.faults) == 2


class TestCounting:
    def test_fires_exactly_at_nth(self, tmp_path):
        injector = IOFaultInjector([IOFault("journal", "write", "enospc", nth=2)])
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with install(injector):
                io_write(fd, b"one", "journal")  # call 1: clean
                with pytest.raises(OSError) as caught:
                    io_write(fd, b"two", "journal")  # call 2: fires
                assert caught.value.errno == errno.ENOSPC
                io_write(fd, b"three", "journal")  # call 3: clean again
        finally:
            os.close(fd)
        assert injector.fired == [("journal", "write", "enospc", 2)]

    def test_repeat_fires_from_nth_on(self, tmp_path):
        injector = IOFaultInjector(
            [IOFault("journal", "write", "eio", nth=2, repeat=True)]
        )
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with install(injector):
                io_write(fd, b"x", "journal")
                for _ in range(3):
                    with pytest.raises(OSError):
                        io_write(fd, b"x", "journal")
        finally:
            os.close(fd)

    def test_sites_count_independently(self, tmp_path):
        injector = IOFaultInjector([IOFault("journal", "write", "eio", nth=1)])
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with install(injector):
                io_write(fd, b"x", "checkpoint")  # different site: clean
                with pytest.raises(OSError):
                    io_write(fd, b"x", "journal")
        finally:
            os.close(fd)

    def test_uninstalled_wrappers_are_plain_syscalls(self, tmp_path):
        assert records.io_hook is None
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            assert io_write(fd, b"hello", "journal") == 5
        finally:
            os.close(fd)
        assert (tmp_path / "f").read_bytes() == b"hello"


class TestFaultKinds:
    def test_short_write_tears_the_data(self, tmp_path):
        injector = IOFaultInjector([IOFault("journal", "write", "short-write")])
        fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
        try:
            with install(injector):
                with pytest.raises(OSError) as caught:
                    io_write(fd, b"0123456789", "journal")
        finally:
            os.close(fd)
        assert caught.value.errno == errno.ENOSPC
        torn = (tmp_path / "f").read_bytes()
        assert 0 < len(torn) < 10  # a real torn prefix, not all-or-nothing

    def test_check_io_degrades_short_write_to_enospc(self):
        injector = IOFaultInjector([IOFault("tracefile", "write", "short-write")])
        with install(injector):
            with pytest.raises(OSError) as caught:
                check_io("tracefile", "write")
        assert caught.value.errno == errno.ENOSPC

    def test_injected_errors_name_the_site(self):
        injector = IOFaultInjector([IOFault("lease", "fsync", "fsync-fail")])
        with install(injector):
            with pytest.raises(OSError, match=r"injected at lease:fsync"):
                records.io_fsync(0, "lease")


class TestAtomicWrite:
    def test_replaces_content_without_litter(self, tmp_path):
        target = tmp_path / "data.json"
        target.write_text("old")
        atomic_write_text(target, "new", site="checkpoint")
        assert target.read_text() == "new"
        assert no_tmp_litter(tmp_path)

    def test_enospc_preserves_old_content_and_unlinks_temp(self, tmp_path):
        target = tmp_path / "data.json"
        target.write_text("old")
        injector = IOFaultInjector([IOFault("checkpoint", "write", "enospc")])
        with install(injector):
            with pytest.raises(OSError):
                atomic_write_text(target, "new", site="checkpoint")
        assert target.read_text() == "old"
        assert no_tmp_litter(tmp_path)

    def test_fsync_failure_also_cleans_up(self, tmp_path):
        target = tmp_path / "data.json"
        injector = IOFaultInjector([IOFault("checkpoint", "fsync", "fsync-fail")])
        with install(injector):
            with pytest.raises(OSError):
                atomic_write_bytes(target, b"bytes", site="checkpoint")
        assert not target.exists()
        assert no_tmp_litter(tmp_path)

    def test_non_durable_skips_fsync(self, tmp_path):
        # With durable=False an armed fsync fault never fires.
        target = tmp_path / "hb.json"
        injector = IOFaultInjector(
            [IOFault("lease", "fsync", "fsync-fail", repeat=True)]
        )
        with install(injector):
            atomic_write_text(target, "beat", site="lease", durable=False)
        assert target.read_text() == "beat"


class TestEnvInstall:
    def test_absent_variable_is_a_noop(self):
        assert install_from_env({}) is None

    def test_env_spec_arms_the_process(self, tmp_path):
        previous = records.io_hook
        try:
            injector = install_from_env({IOFAULT_ENV: "journal:write:eio:1"})
            assert injector is not None and active_injector() is injector
            fd = os.open(tmp_path / "f", os.O_WRONLY | os.O_CREAT)
            try:
                with pytest.raises(OSError):
                    io_write(fd, b"x", "journal")
            finally:
                os.close(fd)
        finally:
            records.io_hook = previous
