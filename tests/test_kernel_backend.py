"""Kernel backend selection: compile on import, the library cache, the
pure fallback and the argument checks in front of the C code."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from wdrd import _kernel_py, kernel
from wdrd.errors import TooLargeError, TooManyEdgesError

SRC = Path(kernel.__file__).resolve().parents[1]
needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on PATH")


def backend_in_subprocess():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", "import wdrd.kernel as k; print(k.BACKEND)"],
        env=env, capture_output=True, text=True, check=True, timeout=120)
    return out.stdout.strip()


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """Point the library cache at an empty directory and forget the
    library this process loaded; restored afterwards."""
    monkeypatch.setattr(kernel, "_CACHE", tmp_path / "cache")
    kernel._compiled.cache_clear()
    yield tmp_path / "cache"
    kernel._compiled.cache_clear()


@needs_cc
def test_compiled_backend_is_the_default():
    assert backend_in_subprocess() == "compiled"


def test_compile_failure_falls_back_to_pure(empty_cache, monkeypatch):
    def failing_build(target):
        raise subprocess.CalledProcessError(1, "cc")

    monkeypatch.setattr(kernel, "_build", failing_build)
    assert kernel.backends() == {"pure": _kernel_py.search_run}


def test_unwritable_cache_falls_back_to_pure(tmp_path, empty_cache,
                                            monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(kernel, "_CACHE", blocker / "cache")
    assert kernel._load() is None
    assert kernel.backends() == {"pure": _kernel_py.search_run}


def test_missing_compiler_falls_back_to_pure(empty_cache, monkeypatch):
    """The fallback a machine without `cc` gets: the compile cannot start,
    only the pure kernel is listed and the cache is left without a file."""
    monkeypatch.setattr(kernel, "_COMPILE",
                        (str(empty_cache.parent / "no-such-cc"),
                         *kernel._COMPILE[1:]))
    assert kernel._load() is None
    assert kernel.backends() == {"pure": _kernel_py.search_run}
    assert list(empty_cache.iterdir()) == []


@needs_cc
def test_second_load_reuses_the_cached_library(empty_cache, monkeypatch):
    builds = []
    real_build = kernel._build

    def counting_build(target):
        builds.append(target)
        real_build(target)

    monkeypatch.setattr(kernel, "_build", counting_build)
    empty_cache.mkdir()
    stale = empty_cache / "_kernel-0000000000000000.so"
    stale.write_bytes(b"")
    assert kernel._load() is not None
    assert kernel._load() is not None
    assert len(builds) == 1
    assert not stale.exists()
    assert [p.name for p in empty_cache.iterdir()] == [builds[0].name]


def test_c_counters_are_the_stat_keys():
    """C writes NSTATS counter slots into an array of len(STAT_KEYS)."""
    enum = re.search(r"enum\s*\{([^}]*)\bNSTATS\s*\}",
                     kernel._SOURCE.read_text())
    assert enum is not None
    names = [name.strip() for name in enum.group(1).split(",")]
    assert names == [key.upper() for key in kernel.STAT_KEYS] + [""]


def test_c_limits_are_the_kernel_limits():
    source = kernel._SOURCE.read_text()
    limits = dict(re.findall(r"#define (MAXN|MAXE) (\d+)", source))
    assert limits == {"MAXN": str(kernel.MAX_N),
                      "MAXE": str(kernel.MAX_EDGES)}


def test_c_leaf_stages_are_the_leaf_stages():
    """wdrd_leaf_stage returns an index into LEAF_STAGES."""
    enum = re.search(r"enum\s*\{\s*(PASS\b[^}]*)\}",
                     kernel._SOURCE.read_text())
    assert enum is not None
    names = [name.strip().lower() for name in enum.group(1).split(",")]
    c_name = {"pass": None, "not_strong": "not_strongly_connected"}
    assert [c_name.get(name, name) for name in names] == \
        list(kernel.LEAF_STAGES)


BAD_ARGUMENTS = {
    "no vertices": (0, []),
    "65 vertices": (65, []),
    "40 edges": (64, [(0, v) for v in range(1, 41)]),
    "endpoint n": (3, [(0, 3)]),
    "negative endpoint": (3, [(-1, 1)]),
    "state 3": (2, [(0, 1)], (3,)),
    "negative state": (2, [(0, 1)], (-1,)),
    "prefix longer than edges": (2, [(0, 1)], (0, 0)),
    "loop edge": (3, [(0, 0), (0, 1), (1, 2), (0, 2)]),
    "repeated edge": (3, [(0, 1), (1, 2), (0, 1)]),
    "repeated edge reversed": (3, [(0, 1), (1, 2), (1, 0)]),
}


class NoLibrary:
    def wdrd_search_run(self, *args):
        raise AssertionError("bad arguments reached the C code")


@pytest.mark.parametrize("args", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_arguments_are_rejected_before_the_c_call(args):
    with pytest.raises(ValueError):
        kernel._run_compiled(NoLibrary(), *args)


@pytest.mark.parametrize("args", [(0, [], []), (65, [0] * 65, [0] * 65),
                                  (2, [2], [1, 1]), (2, [4, 1], [2, 1]),
                                  (2, [-1, 1], [2, 1])])
def test_bad_leaf_stage_arguments_are_rejected_before_the_c_call(args):
    with pytest.raises(ValueError):
        kernel._leaf_stage_compiled(NoLibrary(), *args)


@pytest.mark.parametrize("args", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_pure_kernel_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        _kernel_py.search_run(*args)


@pytest.mark.parametrize("case,error", [("65 vertices", TooLargeError),
                                        ("40 edges", TooManyEdgesError)])
def test_size_limits_raise_typed_errors_on_both_kernels(case, error):
    args = BAD_ARGUMENTS[case]
    with pytest.raises(error, match="kernel limit"):
        _kernel_py.search_run(*args)
    with pytest.raises(error, match="kernel limit"):
        kernel._run_compiled(NoLibrary(), *args)


# Runs the parity cases through a kernel library built elsewhere, given as
# argv[1], and compares it with the pure kernel.
PARITY_SCRIPT = """
import sys
from pathlib import Path
from test_kernel_parity import BRANCHES, CASES
from wdrd import _kernel_py, kernel

kernel._library_path = lambda: Path(sys.argv[1])
lib = kernel._load()
assert lib is not None, "the library did not load"
for n, edges, *prefix in CASES + BRANCHES:
    for prune in (False, True):
        want = _kernel_py.search_run(n, edges, *prefix, prune_degree=prune)
        got = kernel._run_compiled(lib, n, edges, *prefix, prune_degree=prune)
        assert got == want, (n, edges, prefix, prune)
"""


@needs_cc
def test_compiled_kernel_runs_clean_under_ubsan(tmp_path):
    """Undefined behaviour aborts the subprocess, which fails this test
    instead of killing pytest."""
    lib = tmp_path / "_kernel_ubsan.so"
    subprocess.run(["cc", "-O1", "-fsanitize=undefined",
                    "-fno-sanitize-recover=all", "-shared", "-fPIC", "-o",
                    str(lib), str(kernel._SOURCE)], check=True,
                   capture_output=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(Path(__file__).parent)]))
    out = subprocess.run([sys.executable, "-c", PARITY_SCRIPT, str(lib)],
                         env=env, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
