"""Kernel backend selection: compile on import, the library cache, the
pure fallback and the argument checks in front of the C code."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import build_kernel
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
    assert kernel.backends() == {"pure": _kernel_py}


def test_unwritable_cache_falls_back_to_pure(tmp_path, empty_cache,
                                            monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setattr(kernel, "_CACHE", blocker / "cache")
    assert kernel._load() is None
    assert kernel.backends() == {"pure": _kernel_py}


def test_missing_compiler_falls_back_to_pure(empty_cache, monkeypatch):
    """The fallback a machine without `cc` gets: the compile cannot start,
    only the pure kernel is listed and the cache is left without a file."""
    monkeypatch.setattr(kernel, "_COMPILE",
                        (str(empty_cache.parent / "no-such-cc"),
                         *kernel._COMPILE[1:]))
    assert kernel._load() is None
    assert kernel.backends() == {"pure": _kernel_py}
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
    "state 3": (2, [(0, 1)], [(3,)]),
    "negative state": (2, [(0, 1)], [(-1,)]),
    "prefix longer than edges": (2, [(0, 1)], [(0, 0)]),
    "state 3 in a later prefix": (2, [(0, 1)], [(0,), (3,)]),
    "no prefix": (2, [(0, 1)], []),
    "a bare prefix": (2, [(0, 1)], (0,)),
    "repeated prefix": (3, [(0, 1), (1, 2)], [(0,), (1,), (0,)]),
    "a prefix extends another": (3, [(0, 1), (1, 2)], [(0,), (1, 2), (1,)]),
    "the empty prefix and another": (3, [(0, 1), (1, 2)], [(2, 2), ()]),
    "loop edge": (3, [(0, 0), (0, 1), (1, 2), (0, 2)]),
    "repeated edge": (3, [(0, 1), (1, 2), (0, 1)]),
    "repeated edge reversed": (3, [(0, 1), (1, 2), (1, 0)]),
}


# The compiled backend with no library: an entry point whose arguments
# reach the C call raises AttributeError, which fails the tests below.
NO_LIBRARY = kernel._Compiled(None)


def raised(entry, args):
    """The type of the ValueError that `entry(*args)` raises."""
    with pytest.raises(ValueError) as error:
        entry(*args)
    return error.type


@pytest.mark.parametrize("args", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_arguments_are_rejected_before_the_c_call(args):
    """The compiled backend raises what the pure one raises."""
    assert raised(NO_LIBRARY.search_run, args) is \
        raised(_kernel_py.search_run, args)


BAD_MASKS = [(0, [], []), (65, [0] * 65, [0] * 65), (2, [2], [1, 1]),
             (2, [4, 1], [2, 1]), (2, [-1, 1], [2, 1])]


@pytest.mark.parametrize("args", BAD_MASKS)
def test_bad_leaf_stage_arguments_are_rejected_before_the_c_call(args):
    assert raised(NO_LIBRARY.leaf_stage, args) is \
        raised(_kernel_py.leaf_stage, args)


@pytest.mark.parametrize("args", BAD_MASKS)
def test_bad_canonical_permutation_arguments_are_rejected_before_the_c_call(
        args):
    assert raised(NO_LIBRARY.canonical_permutation, args) is \
        raised(_kernel_py.canonical_permutation, args)


LABELS = np.array([[0, 1], [2, 0]])
BAD_PARTITIONS = {
    "not square": (np.zeros((2, 3), dtype=int), [0, 1]),
    "not a matrix": (np.zeros(4, dtype=int), [0]),
    "no cell": (np.zeros((0, 0), dtype=int), [0]),
    "float labels": (LABELS.astype(float), [0, 1, 2]),
    "label past the classes": (LABELS, [0, 1]),
    "negative label": (-LABELS, [0, 1, 2]),
    "representative of another class": (LABELS, [0, 2, 1]),
    "representative outside the cells": (LABELS, [0, 1, 4]),
    "negative representative": (LABELS, [0, 1, -2]),
    "no class": (LABELS, []),
}
BAD_TENSORS = {
    "not cubic": np.zeros((2, 2, 3), dtype=int),
    "a matrix": np.zeros((2, 2), dtype=int),
    "empty": np.zeros((0, 0, 0), dtype=int),
    "float entries": np.zeros((2, 2, 2)),
    "negative entry": np.full((2, 2, 2), -1),
    "entry too large": np.full((2, 2, 2), 2 ** 26),
}


@pytest.mark.parametrize("args", BAD_PARTITIONS.values(), ids=BAD_PARTITIONS)
def test_bad_axiom_iv_arguments_are_rejected_before_the_c_call(args):
    assert raised(NO_LIBRARY.axiom_iv_witness, args) is \
        raised(_kernel_py.axiom_iv_witness, args)


@pytest.mark.parametrize("p", BAD_TENSORS.values(), ids=BAD_TENSORS)
def test_bad_tensors_are_rejected_before_the_c_call(p):
    for commute in (False, True):
        assert raised(NO_LIBRARY.product_witness, (p, commute)) is \
            raised(_kernel_py.product_witness, (p, commute))


def test_more_classes_than_vertices_are_rejected_before_the_c_call():
    """The pure pass takes them; `wdrd.scheme` sends them there."""
    args = LABELS, [0, 1, 2]
    with pytest.raises(ValueError, match="at most n"):
        NO_LIBRARY.axiom_iv_witness(*args)
    # the diagonal pairs' keys are {0 * 3 + 0, 1 * 3 + 2} and {0, 2 * 3 + 1}
    assert _kernel_py.axiom_iv_witness(*args) == (1, 2, 0)


def test_largest_admissible_entries_are_accepted():
    """nc t^2 just below 2^53 on two classes: the products stay exact."""
    t = 2 ** 26 - 1
    p = np.full((2, 2, 2), t)
    for backend in kernel.backends().values():
        assert backend.product_witness(p) is None
        assert backend.product_witness(p, commute=True) is None


@pytest.mark.parametrize("args", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_pure_kernel_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        _kernel_py.search_run(*args)


@pytest.mark.parametrize("case,error", [("65 vertices", TooLargeError),
                                        ("40 edges", TooManyEdgesError)])
def test_size_limits_raise_typed_errors_on_both_kernels(case, error):
    for backend in (_kernel_py, NO_LIBRARY):
        with pytest.raises(error, match="kernel limit"):
            backend.search_run(*BAD_ARGUMENTS[case])


# Runs the parity cases, two branches of unpruned sweeps, the whole K6
# sweep, multi-prefix calls, a call that its leaf budget stops within its
# prefixes, the largest leaves, the canonical search on
# digraphs large and symmetric enough to grow its automorphism list, the
# threaded runs and both tensor checks of `wdrd.scheme` through a kernel
# library built elsewhere, given as argv[1], and compares it with the pure
# kernel.
PARITY_SCRIPT = """
import sys
from pathlib import Path
from test_canon import LARGE_CASES, check_threaded_forms
from test_kernel_leaves import FULL, J42, K6, LEAVES
from test_kernel_parity import BRANCHES, CASES, agreed, check_threaded_runs
from test_scheme import check_scheme_parity
from wdrd import _kernel_py, kernel
from wdrd.search import _branches

kernel._library_path = lambda: Path(sys.argv[1])
compiled = kernel._load()
assert compiled is not None, "the library did not load"

for n, edges, *prefixes in CASES + BRANCHES:
    agreed(compiled, n, edges, prefixes or [()])
for name in ("J(4,2) 01", "K4 minus an edge"):
    n, edges, prefix = FULL[name]
    agreed(compiled, n, edges, [prefix])
agreed(compiled, 6, K6)
for n, edges, prefixes in [(6, K6, _branches(15, 2, True)[0]),
                           (6, J42, _branches(12, 4, False)[0][1::2])]:
    agreed(compiled, n, edges, prefixes)
plan = _branches(12, 4, False)[0]
assert 0 < agreed(compiled, 6, J42, plan, 20)["finished"] < len(plan)
for name, (n, out_m, in_m) in LEAVES.items():
    want = _kernel_py.leaf_stage(n, out_m, in_m)
    assert compiled.leaf_stage(n, out_m, in_m) == want, name
for cases in LARGE_CASES.values():
    for d in cases():
        args = d.n, d.out_masks, d.in_masks
        assert compiled.canonical_permutation(*args) == \\
            _kernel_py.canonical_permutation(*args), args
check_threaded_runs(compiled.search_run)
kernel.canonical_permutation = compiled.canonical_permutation
check_threaded_forms()
check_scheme_parity(compiled)
"""


def run_parity_script(lib, **env):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(Path(__file__).parent)]), **env)
    return subprocess.run([sys.executable, "-c", PARITY_SCRIPT, str(lib)],
                          env=env, capture_output=True, text=True,
                          timeout=600)


@needs_cc
def test_compiled_kernel_runs_clean_under_ubsan(tmp_path):
    """Undefined behaviour aborts the subprocess, which fails this test
    instead of killing pytest."""
    lib = build_kernel(tmp_path, flags=["-O1", "-fsanitize=undefined",
                                        "-fno-sanitize-recover=all"])
    out = run_parity_script(lib)
    assert out.returncode == 0, out.stderr


@needs_cc
def test_compiled_kernel_runs_clean_under_asan(tmp_path):
    """An out-of-bounds access, such as a write past the class table or
    the sorted reference keys of the leaf scratch, aborts the subprocess.
    The Python interpreter is not built with the sanitizer, so its runtime
    is preloaded."""
    runtime = subprocess.run(["cc", "-print-file-name=libasan.so"],
                             capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(runtime) or not os.path.exists(runtime):
        pytest.skip("no AddressSanitizer runtime")
    lib = build_kernel(tmp_path, flags=["-O1", "-fsanitize=address",
                                        "-fno-omit-frame-pointer"])
    out = run_parity_script(lib, LD_PRELOAD=runtime,
                            ASAN_OPTIONS="detect_leaks=0")
    assert out.returncode == 0, out.stderr
