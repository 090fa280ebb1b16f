import os
import shutil
import tempfile

import pytest

from kernel_paths import _forced_path


def pytest_configure(config):
    # the compiled kernel (plapfd._ckernel) is built into a cache
    # directory of this session's own, not into the user's cache
    config.plapfd_cache = tempfile.mkdtemp(prefix="plapfd-cache-")
    os.environ["XDG_CACHE_HOME"] = config.plapfd_cache


def pytest_unconfigure(config):
    shutil.rmtree(config.plapfd_cache, ignore_errors=True)


@pytest.fixture
def path(request):
    # the way apply_dp_grid computes the operator for this test, named by
    # its parameter (indirect=["path"]): see kernel_paths
    with _forced_path(request.param) as forced:
        yield forced
