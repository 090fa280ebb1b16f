import gc
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from plapfd import GridField, apply_dp_grid, stencil_ball
from plapfd import _ckernel
from plapfd.operators import _Workspace
from kernel_paths import _apply_dp_grid_previous_workspace


@pytest.fixture
def cache(tmp_path, monkeypatch):
    # a fresh cache directory and a fresh load() for this test, and a
    # fresh load() again for the tests after it
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _ckernel.load.cache_clear()
    yield tmp_path / "plapfd"
    _ckernel.load.cache_clear()


def _field():
    rng = np.random.default_rng(5)
    return GridField(d=2, h=0.1, half_width=0.5, values=rng.standard_normal((11, 11)),
                     extension="boundary")


def _apply(field):
    # p = 3 in a workspace of its own: whether it is compiled, and its bytes
    stencil = stencil_ball(0.3, 0.1, 3.0, 2)
    work = _Workspace(stencil, field.values.shape, field.extension)
    with np.errstate(over="ignore", invalid="ignore"):
        return work.compiled, apply_dp_grid(stencil, field, _work=work).tobytes()


@pytest.mark.parametrize("how", ["CC=false", "no compiler", "a failed compile"])
def test_no_library_falls_back_to_numpy_with_the_same_bytes(cache, monkeypatch, how):
    if how == "CC=false":
        monkeypatch.setenv("CC", "false")
    elif how == "no compiler":
        monkeypatch.setenv("CC", str(cache / "no-such-cc"))
    else:
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setattr(_ckernel, "_SOURCE", "this is not C;")
    field = _field()
    want = _apply_dp_grid_previous_workspace(stencil_ball(0.3, 0.1, 3.0, 2), field).tobytes()
    assert _ckernel.load() is None
    assert _apply(field) == (False, want)
    # no temporary file is left behind
    assert not cache.exists() or os.listdir(cache) == []


def test_a_build_leaves_one_library_and_a_warm_cache_runs_no_subprocess(cache, monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    field = _field()
    want = _apply_dp_grid_previous_workspace(stencil_ball(0.3, 0.1, 3.0, 2), field).tobytes()
    assert _ckernel.load() is not None
    (name,) = os.listdir(cache)
    assert name.startswith("kernel-") and name.endswith(".so")
    assert _apply(field) == (True, want)

    def no_subprocess(*args, **kwargs):
        raise AssertionError("a warm cache ran a subprocess")

    _ckernel.load.cache_clear()
    monkeypatch.setattr(subprocess, "run", no_subprocess)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    assert _ckernel.load() is not None
    assert _apply(field) == (True, want)
    assert os.listdir(cache) == [name]


def test_two_processes_that_build_at_once_both_load(cache, monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    if shutil.which("cc") is None:
        pytest.skip("no cc on PATH")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys; from plapfd import _ckernel; sys.exit(_ckernel.load() is None)"
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env) for _ in range(2)]
    assert [proc.wait(timeout=120) for proc in procs] == [0, 0]
    (name,) = os.listdir(cache)
    assert name.startswith("kernel-") and name.endswith(".so")


# builds and loads the library, then prints a subnormal quotient and the
# compiled kernel's bytes on _field()'s values, read from standard input
_FAST_MATH_CHILD = """
import sys
import numpy as np
from plapfd import GridField, apply_dp_grid, stencil_ball
from plapfd.operators import _Workspace

values = np.frombuffer(sys.stdin.buffer.read()).reshape(11, 11)
field = GridField(d=2, h=0.1, half_width=0.5, values=values, extension="boundary")
stencil = stencil_ball(0.3, 0.1, 3.0, 2)
work = _Workspace(stencil, values.shape, field.extension)
assert work.compiled, "the library did not build"
with np.errstate(over="ignore", invalid="ignore"):
    got = apply_dp_grid(stencil, field, _work=work)
print(repr(float(np.float64(2.2250738585072014e-308) / 4)), got.tobytes().hex())
"""


def test_a_fast_math_cc_keeps_subnormals_and_the_numpy_kernels_bytes(tmp_path):
    # gcc -ffast-math would reassociate the kernel's sums and link a
    # startup file that sets flush-to-zero for the whole process at load;
    # the build's -fno-fast-math cancels both. The load runs in a child
    # process, since flush-to-zero would last for the rest of this one
    if shutil.which("gcc") is None:
        pytest.skip("no gcc on PATH")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, CC="gcc -ffast-math", XDG_CACHE_HOME=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    field = _field()
    want = _apply_dp_grid_previous_workspace(stencil_ball(0.3, 0.1, 3.0, 2), field).tobytes()
    child = subprocess.run([sys.executable, "-c", _FAST_MATH_CHILD], env=env, timeout=120,
                           input=field.values.tobytes(), capture_output=True)
    assert child.returncode == 0, child.stderr.decode()[-2000:]
    tiny, got = child.stdout.decode().split()
    assert float(tiny) == 2.2250738585072014e-308 / 4 != 0.0
    assert bytes.fromhex(got) == want


def test_a_bound_call_keeps_its_arrays_alive():
    # the call holds the only references to its six arrays: they live as
    # long as it does, it still reads and writes them, and they die with it
    fn = _ckernel.kernel(3.0)
    if fn is None:
        pytest.skip("the compiled kernel did not build here (no C compiler, or CC=false)")
    padded = np.array([0.0, 1.0, 3.0, 2.0, 0.0])  # three nodes, one zero on each side
    arrays = [padded, np.array([1]), np.array([-1, 1]), np.array([1.0, 1.0]),
              np.empty(3), np.empty(3)]
    call = _ckernel.bind(fn, *arrays)
    refs = [weakref.ref(a) for a in arrays]
    del padded, arrays
    gc.collect()
    assert all(ref() is not None for ref in refs)
    call()
    # jp(U[x+1] - U[x]) - jp(U[x] - U[x-1]) at p = 3, U = 1, 3, 2
    assert refs[-1]().tolist() == [4.0 - 1.0, -1.0 - 4.0, -4.0 + 1.0]
    del call
    gc.collect()
    assert all(ref() is None for ref in refs)
