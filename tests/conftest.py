import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from wdrd import _kernel_py, kernel  # noqa: E402


@pytest.fixture(scope="session")
def compiled():
    """The compiled backend: skipped without a C compiler, and a failure
    when a compiler exists but the kernel did not build or load."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    found = kernel.backends()
    assert "compiled" in found, "cc is on PATH but the compiled kernel is missing"
    return found["compiled"]


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    """Each backend object; the compiled one skips without a C compiler."""
    if request.param == "pure":
        return _kernel_py
    return request.getfixturevalue("compiled")


def replaced(source, replacements):
    """`source` with each (old, new) of `replacements` made; each old text
    must occur in it once."""
    for old, new in replacements:
        assert source.count(old) == 1, f"the kernel changed; update {old!r}"
        source = source.replace(old, new)
    return source


def pure_variant(*replacements):
    """A copy of `_kernel_py` with each (old, new) of `replacements` made,
    as a backend object."""
    source = replaced(Path(_kernel_py.__file__).read_text(), replacements)
    module = types.ModuleType("wdrd._kernel_py_variant")
    module.__package__ = "wdrd"
    exec(compile(source, _kernel_py.__file__, "exec"), module.__dict__)
    return module


def build_kernel(directory, *replacements, flags=()):
    """Build `_kernel.c` with each (old, new) of `replacements` made in
    `directory`, with `flags` after those of the kernel's own compile
    command; returns the library's path."""
    source = directory / "kernel.c"
    source.write_text(replaced(kernel._SOURCE.read_text(), replacements))
    library = source.with_suffix(".so")
    subprocess.run([*kernel._COMPILE, *flags, "-o", str(library),
                    str(source)], check=True, capture_output=True)
    return library


def compiled_variant(directory, *replacements):
    """The build of `build_kernel` as a backend object.  A sanitizer build
    loads in a subprocess instead, so it uses `build_kernel` alone."""
    library = build_kernel(directory, *replacements)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_library_path", lambda: library)
        variant = kernel._load()
    assert variant is not None, "the kernel variant did not load"
    return variant
