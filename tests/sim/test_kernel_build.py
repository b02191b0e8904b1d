"""The compiled kernel's build cache: one shared object per source and
compiler flags, so a flag edit is never tested against a library built
with the old flags.  A kernel that does not load says why, once."""

import logging
import tempfile

import pytest

from repro.sim import _ckernel


@pytest.fixture
def compiles(monkeypatch, tmp_path):
    """The compiler commands run under a fresh temp directory; each run
    writes an empty file where the shared object goes."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    commands = []

    def run(command, **kwargs):
        commands.append(command)
        with open(command[command.index("-o") + 1], "w"):
            pass

    monkeypatch.setattr(_ckernel.subprocess, "run", run)
    return commands


def test_cached_object_is_reused(compiles):
    path = _ckernel._shared_object("cc")
    assert _ckernel._shared_object("cc") == path
    assert len(compiles) == 1


def test_flag_change_compiles_anew(monkeypatch, compiles):
    path = _ckernel._shared_object("cc")
    flags = [*_ckernel._CFLAGS, "-O3", "-ffast-math"]
    monkeypatch.setattr(_ckernel, "_CFLAGS", flags)
    assert _ckernel._shared_object("cc") != path
    assert len(compiles) == 2
    assert compiles[1][1 : 1 + len(flags)] == flags


@pytest.fixture
def fresh_load(monkeypatch, caplog):
    """``load_kernel`` as in a new process: nothing loaded or refused
    yet, with the module's log records captured."""
    monkeypatch.setattr(_ckernel, "_cached", None)
    monkeypatch.setattr(_ckernel, "_failure", None)
    caplog.set_level(logging.WARNING, logger=_ckernel.__name__)
    return caplog


def test_failure_logged_once_and_kept(monkeypatch, fresh_load):
    def build():
        raise OSError("read-only file system")

    monkeypatch.setattr(_ckernel, "_build", build)
    assert _ckernel.load_kernel() is None
    (record,) = fresh_load.records
    assert record.levelno == logging.WARNING
    assert "OSError: read-only file system" in record.getMessage()
    fresh_load.clear()
    assert _ckernel.load_kernel() is None
    assert _ckernel.load_failure() == "OSError: read-only file system"
    assert not fresh_load.records


def test_missing_compiler_is_a_failure(monkeypatch, fresh_load):
    pytest.importorskip("cffi")
    monkeypatch.setattr(_ckernel.shutil, "which", lambda name: None)
    assert _ckernel.load_kernel() is None
    assert _ckernel.load_failure().startswith("FileNotFoundError: no C compiler")
    assert len(fresh_load.records) == 1


def test_loaded_kernel_has_no_failure():
    if _ckernel.load_kernel() is None:
        pytest.skip("no compiled kernel")
    assert _ckernel.load_failure() is None
