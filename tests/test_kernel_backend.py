"""Kernel backend selection: compile on import, the library cache, the
pure fallback and the argument checks in front of the C code."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

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


def test_c_memo_budget_is_the_kernel_budget():
    budget = re.search(r"#define MEMO_BYTES \(1 << (\d+)\)",
                       kernel._SOURCE.read_text())
    assert budget is not None
    assert 1 << int(budget.group(1)) == _kernel_py.MEMO_BYTES


def test_c_memo_holds_as_many_states_as_the_pure_memo():
    """C doubles its table of (n + 2)-word slots from MEMO_MIN slots while
    it fits in MEMO_BYTES, and fills it at most half."""
    first = re.search(r"#define MEMO_MIN (\d+)", kernel._SOURCE.read_text())
    assert first is not None
    for n in range(1, 17):
        table, slots = 0, int(first.group(1))
        while slots * 8 * (n + 2) <= _kernel_py.MEMO_BYTES:
            table, slots = slots, 2 * slots
        assert table // 2 == _kernel_py._memo_states(n), n


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


# Runs the parity cases, two unpruned branches, the unpruned K6 sweep
# (whose count memo grows from its first size to 32,768 slots), multi-prefix
# calls (whose prefixes share that memo as it grows), the largest leaves,
# the canonical search on digraphs large and symmetric enough to grow its
# automorphism list, and the threaded runs through a kernel library built
# elsewhere, given as argv[1], and compares it with the pure kernel.  Each
# unpruned call must be the pruned one plus N, and N the word-by-word count
# where one is known.
PARITY_SCRIPT = """
import sys
from pathlib import Path
from test_canon import LARGE_CASES, check_threaded_forms
from test_kernel_leaves import BUDGET, FULL, J42, K6, LEAVES, not_strong
from test_kernel_parity import BRANCHES, CASES, agreed, check_threaded_runs
from wdrd import _kernel_py, kernel
from wdrd.search import _branches

kernel._library_path = lambda: Path(sys.argv[1])
compiled = kernel._load()
assert compiled is not None, "the library did not load"


def check(n, edges, prefixes):
    \"\"\"Compare both modes with the pure kernel and the unpruned call with
    the pruned one; return N.\"\"\"
    pruned, unpruned = (agreed(compiled, n, edges, prefixes, prune)
                        for prune in (True, False))
    count = unpruned.pop(kernel.NOT_STRONG_KEY)
    assert unpruned == pruned, (n, edges, prefixes)
    return count


for n, edges, *prefixes in CASES + BRANCHES:
    check(n, edges, prefixes or [()])
for name in ("J(4,2) 01", "K4 minus an edge"):
    n, edges, prefix = FULL[name]
    assert check(n, edges, [prefix]) == not_strong(name), name
n, edges, prefix, count = BUDGET["K6"]
assert check(n, edges, [prefix]) == count, "K6"
for n, edges, prefixes in [(6, K6, _branches(15, 2, True)[0]),
                           (6, J42, _branches(12, 4, False)[0][1::2])]:
    check(n, edges, prefixes)
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
