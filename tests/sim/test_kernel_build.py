"""The compiled kernel's build cache: one shared object per source and
compiler flags, so a flag edit is never tested against a library built
with the old flags."""

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
