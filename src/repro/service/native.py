"""Compiled kernels: built on first use, cached per user, loaded with ctypes.

``kernels.c`` (next to this module) holds C versions of the two serving
kernels in :mod:`repro.service.cluster`, ``repro/sim/kernel.c`` the
cycle-level simulator's measured window (:mod:`repro.sim.kernel`), and
``repro/noc/kernel.c`` the NoC's route search and packet replay
(:mod:`repro.noc.fastpath`).  All three are built into one library.  :func:`load` compiles it with the local ``gcc`` the
first time a kernel runs -- never at import -- and returns the loaded
library, or ``None`` when no compiler is found or the build fails; the
callers then run the pure-Python models, which stay the oracles.

Build rules:

* flags are ``-O2 -ffp-contract=off`` (no fused multiply-add), with no
  ``-ffast-math`` and no ``-march=native``, so doubles round exactly as in
  Python and results do not depend on the host's instruction set;
* the library's file name carries a SHA-256 of the sources, the flags and the
  compiler's identity (its resolved path, size and modification time -- a
  compiler upgrade replaces the binary), so an edit or an upgrade never loads
  a stale build.  The identity is read with ``stat``, not by running the
  compiler, so a process that finds its library built spawns nothing;
* a build is written to a fresh temporary file and published with
  :func:`os.replace`, so processes building at the same moment never see a
  half-written library;
* a library is loaded only as a regular file, from a directory, both owned by
  this user and writable by no one else: ``~/.cache/repro`` when it
  qualifies, else a private temporary directory removed at exit.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path

# The build and load machinery (ctypes, subprocess, hashlib) is imported on
# the first kernel call, keeping it off the package's import time.

#: The compiler and flags of the build (part of the library's cache key).
COMPILER = "gcc"
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: The C sources built into the one library (part of its cache key).
SOURCES = (
    Path(__file__).with_name("kernels.c"),
    Path(__file__).parents[1] / "sim" / "kernel.c",
    Path(__file__).parents[1] / "noc" / "kernel.c",
)

_UNLOADED = object()
_library = _UNLOADED


def load() -> "ctypes.CDLL | None":
    """The compiled kernels, built on the first call; ``None`` if unavailable.

    The outcome is kept for the life of the process, so a failed build is
    attempted once and counted once (``service.kernel.build_failures``).
    """
    global _library
    if _library is _UNLOADED:
        _library = _build_and_load()
    return _library


def _build_and_load() -> "ctypes.CDLL | None":
    import ctypes
    import subprocess

    import numpy as np

    from repro.obs.tracer import get_tracer

    try:
        library = ctypes.CDLL(str(_built_library()))
    except (OSError, subprocess.SubprocessError):
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("service.kernel.build_failures").add()
        return None
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    flags = np.ctypeslib.ndpointer(np.bool_, flags="C_CONTIGUOUS")
    words = np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS")
    pointers = np.ctypeslib.ndpointer(np.uintp, flags="C_CONTIGUOUS")
    size = ctypes.c_int64
    library.fcfs_completion_times.restype = None
    library.fcfs_completion_times.argtypes = [
        size, doubles, doubles, ints, size, doubles, doubles,
    ]
    library.balanced_completion_times.restype = None
    library.balanced_completion_times.argtypes = [
        size, doubles, doubles, size, size, ctypes.c_void_p,
        doubles, ints, doubles, ints, doubles, ints,
    ]
    library.sim_run.restype = size
    library.sim_run.argtypes = [
        ints, doubles, ints, ints, ints, flags, flags,
        pointers, pointers, pointers, ints, doubles,
        doubles, ints, doubles, ints, words, ints,
        ints, words, ints, ints, doubles,
        doubles, ints, doubles,
    ]
    library.noc_routes.restype = size
    library.noc_routes.argtypes = [
        size, ints, ints, doubles, ints, ints, doubles, size, ints, ints, ints, ints,
    ]
    library.noc_replay.restype = None
    library.noc_replay.argtypes = [
        size, ints, doubles, ints, ints, ints, ints, ints, ints, ints, ints,
        doubles, ints, doubles,
    ]
    return library


def _built_library() -> Path:
    """Path of the library for the current source, flags and compiler."""
    import hashlib
    import shutil
    import subprocess
    import tempfile

    compiler = shutil.which(COMPILER)
    if compiler is None:
        raise FileNotFoundError(f"no compiler {COMPILER!r}")
    compiler = os.path.realpath(compiler)
    info = os.stat(compiler)
    identity = f"{compiler}\0{info.st_size}\0{info.st_mtime_ns}\0{' '.join(FLAGS)}"
    sources = b"\0".join(source.read_bytes() for source in SOURCES)
    key = hashlib.sha256(sources + b"\0" + identity.encode()).hexdigest()
    directory = cache_directory()
    target = directory / f"kernels-{key[:32]}.so"
    if _writable_only_by_us(target, stat.S_ISREG):
        return target
    handle, scratch = tempfile.mkstemp(prefix=".kernels-", suffix=".so", dir=directory)
    os.close(handle)
    try:
        subprocess.run(
            [compiler, *FLAGS, "-o", scratch, *map(str, SOURCES)],
            capture_output=True, check=True, timeout=120,
        )
        os.chmod(scratch, 0o700)  # whatever the umask, no one else may write it
        os.replace(scratch, target)
    except BaseException:
        os.unlink(scratch)
        raise
    return target


def cache_directory(preferred: "Path | None" = None) -> Path:
    """Where built libraries live: ``preferred`` if only we can write it.

    ``preferred`` defaults to ``~/.cache/repro`` (created with mode 0700 when
    missing).  A directory someone else owns or can write is never used; a
    private temporary directory, removed at exit, is used instead.
    """
    import atexit
    import shutil
    import tempfile

    if preferred is None:
        preferred = Path.home() / ".cache" / "repro"
    try:
        preferred.parent.mkdir(parents=True, exist_ok=True)
        preferred.mkdir(mode=0o700, exist_ok=True)
    except (OSError, RuntimeError):
        pass
    if _writable_only_by_us(preferred, stat.S_ISDIR):
        return preferred
    private = tempfile.mkdtemp(prefix="repro-kernels-")
    atexit.register(shutil.rmtree, private, ignore_errors=True)
    return Path(private)


def _writable_only_by_us(path: Path, is_kind) -> bool:
    """``path`` exists as ``is_kind`` (no symlink), ours, not group/other-writable."""
    try:
        info = os.lstat(path)
    except OSError:
        return False
    return (
        is_kind(info.st_mode)
        and info.st_uid == os.geteuid()
        and not info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    )
