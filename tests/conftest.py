import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def compiled():
    """search_run of the compiled kernel: skipped without a C compiler, and
    a failure when a compiler exists but the kernel did not build or load."""
    from wdrd import kernel

    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    found = kernel.backends()
    assert "compiled" in found, "cc is on PATH but the compiled kernel is missing"
    return found["compiled"]
