"""Search-kernel backend selection.

The kernel exists twice: `_kernel_py.search_run`, the pure-Python reference,
and `_kernel.c`, the same search in plain C.  On import this module
compiles `_kernel.c` with the system C compiler, caches the shared library
in the package's `__pycache__` under a name keyed by the SHA-256 of the
source and the compile command, and loads it with ctypes.  With no library
cached it falls back to the pure kernel when there is no compiler, when
the compile fails or when the cache directory is read-only; nothing else
picks the kernel.  `BACKEND` names the selected kernel and `search_run` is
its search.  `backends()` and `leaf_stages()` give every available
kernel's search and its leaf check, for tests that compare them.  The
contract both kernels keep (state codes, size limits, counter keys, leaf
stages, `check_arguments`) lives in `_kernel_py` and is re-exported here.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
from pathlib import Path

from . import _kernel_py
from ._kernel_py import (BWD, DIG, FWD, LEAF_STAGES, MAX_EDGES,  # noqa: F401
                         MAX_N, STAT_KEYS, check_arguments)

_SOURCE = Path(__file__).with_name("_kernel.c")
_CACHE = Path(__file__).with_name("__pycache__")
_COMPILE = ("cc", "-O2", "-shared", "-fPIC")
_EMIT = ctypes.CFUNCTYPE(None, ctypes.POINTER(ctypes.c_ubyte))
_MASKS = ctypes.c_uint64 * MAX_N


def _library_path() -> Path:
    key = hashlib.sha256(_SOURCE.read_bytes())
    key.update(" ".join(_COMPILE).encode())
    return _CACHE / f"_kernel-{key.hexdigest()[:16]}.so"


def _build(target: Path) -> None:
    """Compile the kernel into `target`, atomically, and delete the
    libraries of older sources.  Unlinking a library that another process
    has loaded is safe on POSIX."""
    target.parent.mkdir(exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=target.stem,
                               suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run([*_COMPILE, "-o", tmp, str(_SOURCE)], check=True,
                       capture_output=True)
        os.replace(tmp, target)
        for stale in target.parent.glob("_kernel-*.so"):
            if stale != target:
                stale.unlink(missing_ok=True)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _load() -> ctypes.CDLL | None:
    """The compiled kernel library, built on a cache miss; None when it
    cannot be built or loaded."""
    try:
        target = _library_path()
        if not target.exists():
            _build(target)
        lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError):
        return None
    fn = lib.wdrd_search_run
    fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.POINTER(ctypes.c_int),
                   ctypes.c_int, ctypes.c_char_p, ctypes.c_int,
                   ctypes.POINTER(ctypes.c_longlong), _EMIT]
    fn.restype = ctypes.c_int
    lib.wdrd_leaf_stage.argtypes = [ctypes.c_int, _MASKS, _MASKS]
    lib.wdrd_leaf_stage.restype = ctypes.c_int
    return lib


@functools.cache
def _compiled():
    """The compiled kernel library, or None when it is unavailable."""
    return _load()


def _run_compiled(lib, n, edges, prefix=(), prune_degree=False):
    """Compiled twin of `_kernel_py.search_run`; arguments are checked here
    because the C code trusts them."""
    edges = [(int(u), int(v)) for u, v in edges]
    check_arguments(n, edges, prefix)
    prefix = bytes(prefix)
    ne = len(edges)

    survivors: list[bytes] = []

    def emit(word):
        survivors.append(ctypes.string_at(word, ne))

    flat = (ctypes.c_int * (2 * ne + 1))(*(x for e in edges for x in e))
    stats = (ctypes.c_longlong * len(STAT_KEYS))()
    callback = _EMIT(emit)
    if lib.wdrd_search_run(n, ne, flat, len(prefix), prefix,
                           bool(prune_degree), stats, callback):
        raise MemoryError("kernel scratch allocation failed")
    out = dict(zip(STAT_KEYS, stats))
    out["survivors"] = survivors
    return out


def _leaf_stage_compiled(lib, n, out_masks, in_masks):
    """Compiled twin of `_kernel_py.leaf_stage`."""
    if not 1 <= n <= MAX_N or len(out_masks) != n or len(in_masks) != n:
        raise ValueError(f"need 1..{MAX_N} vertices and a mask per vertex")
    if any(m < 0 or m >> n for m in (*out_masks, *in_masks)):
        raise ValueError(f"mask outside vertices 0..{n - 1}")
    stage = lib.wdrd_leaf_stage(n, _MASKS(*out_masks), _MASKS(*in_masks))
    if stage < 0:
        raise MemoryError("kernel scratch allocation failed")
    return LEAF_STAGES[stage]


def backends():
    """All available kernel backends, name -> search_run."""
    found = {"pure": _kernel_py.search_run}
    lib = _compiled()
    if lib is not None:
        found["compiled"] = functools.partial(_run_compiled, lib)
    return found


def leaf_stages():
    """The leaf check of every available backend, name -> leaf_stage."""
    found = {"pure": _kernel_py.leaf_stage}
    lib = _compiled()
    if lib is not None:
        found["compiled"] = functools.partial(_leaf_stage_compiled, lib)
    return found


BACKEND = "pure" if _compiled() is None else "compiled"
search_run = backends()[BACKEND]
