"""Search-kernel backends.

The kernel exists twice: `_kernel_py`, the pure-Python reference, and
`_kernel.c`, the same searches in plain C.  On import this module compiles
`_kernel.c` with the system C compiler, caches the shared library in the
package's `__pycache__` under a name keyed by the SHA-256 of the source and
the compile command, and loads it with ctypes, which releases the GIL for
the length of each kernel call; `wdrd.search` relies on that to run the
shares of a search on threads over the compiled kernel.  With no library
cached it falls back to the pure kernel when there is no compiler, when
the compile fails or when the cache directory is read-only; nothing else
picks the kernel.

A backend is an object with the kernel's three entry points, `search_run`,
`leaf_stage` and `canonical_permutation` (see `_kernel_py`), each of which
checks its arguments first.  The pure backend is the `_kernel_py` module
itself, the compiled one a `_Compiled` over the loaded library.
`backends()` maps the name of every available backend to it, for tests
and benchmarks that compare them.
`BACKEND` names the selected backend, `search_run` is its search and
`canonical_permutation` its canonical search, which `wdrd.canon` calls.
The contract both kernels keep (state codes, size limits, counter keys, leaf
stages, `check_arguments`, `check_masks`) lives in `_kernel_py` and is
re-exported here.
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
                         MAX_N, NOT_STRONG_KEY, STAT_KEYS, check_arguments,
                         check_masks)

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


class _Compiled:
    """The compiled backend: the entry points of `_kernel_py` run by the
    kernel library `lib`.  The C code trusts its arguments, so each entry
    point checks them before the call."""

    def __init__(self, lib):
        self.lib = lib

    def search_run(self, n, edges, prefixes=((),), prune_degree=False):
        """Compiled twin of `_kernel_py.search_run`."""
        edges = [(int(u), int(v)) for u, v in edges]
        prefixes = list(prefixes)
        check_arguments(n, edges, prefixes)
        prefixes = [bytes(p) for p in prefixes]
        ne = len(edges)

        survivors: list[bytes] = []

        def emit(word):
            survivors.append(ctypes.string_at(word, ne))

        flat = (ctypes.c_int * (2 * ne + 1))(*(x for e in edges for x in e))
        # the counters, then N
        stats = (ctypes.c_longlong * (len(STAT_KEYS) + 1))()
        callback = _EMIT(emit)
        lengths = (ctypes.c_int * len(prefixes))(*map(len, prefixes))
        if self.lib.wdrd_search_run(n, ne, flat, len(prefixes), lengths,
                                    b"".join(prefixes), bool(prune_degree),
                                    stats, callback):
            raise MemoryError("kernel scratch allocation failed")
        out = {**dict(zip(STAT_KEYS, stats)), "survivors": survivors}
        if not prune_degree:
            out[NOT_STRONG_KEY] = stats[len(STAT_KEYS)]
        return out

    def leaf_stage(self, n, out_m, in_m):
        """Compiled twin of `_kernel_py.leaf_stage`."""
        check_masks(n, out_m, in_m)
        stage = self.lib.wdrd_leaf_stage(n, _MASKS(*out_m), _MASKS(*in_m))
        if stage < 0:
            raise MemoryError("kernel scratch allocation failed")
        return LEAF_STAGES[stage]

    def canonical_permutation(self, n, out_m, in_m):
        """Compiled twin of `_kernel_py.canonical_permutation`."""
        check_masks(n, out_m, in_m)
        perm = (ctypes.c_int * n)()
        if self.lib.wdrd_canonical_permutation(n, _MASKS(*out_m),
                                               _MASKS(*in_m), perm):
            raise MemoryError("canonical search allocation failed")
        return tuple(perm)


def _load() -> _Compiled | None:
    """The compiled backend over the library at `_library_path()`, built on
    a cache miss; None when the library cannot be built or loaded."""
    try:
        target = _library_path()
        if not target.exists():
            _build(target)
        lib = ctypes.CDLL(str(target))
    except (OSError, subprocess.SubprocessError):
        return None
    fn = lib.wdrd_search_run
    fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.POINTER(ctypes.c_int),
                   ctypes.c_int, ctypes.POINTER(ctypes.c_int),
                   ctypes.c_char_p, ctypes.c_int,
                   ctypes.POINTER(ctypes.c_longlong), _EMIT]
    fn.restype = ctypes.c_int
    lib.wdrd_leaf_stage.argtypes = [ctypes.c_int, _MASKS, _MASKS]
    lib.wdrd_leaf_stage.restype = ctypes.c_int
    fn = lib.wdrd_canonical_permutation
    fn.argtypes = [ctypes.c_int, _MASKS, _MASKS, ctypes.POINTER(ctypes.c_int)]
    fn.restype = ctypes.c_int
    return _Compiled(lib)


# The compiled backend of this process, or None when it is unavailable.
_compiled = functools.cache(_load)


def backends() -> dict:
    """Every available backend, name -> backend object: the pure one, and
    the compiled one when it loaded."""
    found = {"pure": _kernel_py, "compiled": _compiled()}
    return {name: b for name, b in found.items() if b is not None}


BACKEND = "pure" if _compiled() is None else "compiled"
search_run = backends()[BACKEND].search_run
canonical_permutation = backends()[BACKEND].canonical_permutation
