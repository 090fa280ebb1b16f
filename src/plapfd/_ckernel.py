"""The operator kernel in C for p = 2, 3 and 4, built on first use.

At these powers ``jp(xi) * w`` is a short chain of IEEE basic operations
(``-``, ``fabs``, ``*``), each exactly rounded at any vector width, so a
C loop that keeps the numpy kernel's order at every node gives its bits.
Each interior row of the padded copy gets an accumulator row that starts
at +0; then, for each offset in the stencil's lexicographic order, ``acc
= acc + jp(U[x+s] - U[x]) * w``, except that the middle pair is the numpy
kernel's edge pass: ``acc = acc - jp(U[x] - U[x-s1]) * w``, then ``acc =
acc + jp(U[x+s1] - U[x]) * w``. The first term is added, never assigned:
``+0 + (-0)`` is +0, as in numpy. The row is then copied to its place in
``out``, laid out as the padded copy's rows. ``-ffp-contract=off`` keeps
the compiler from fusing a product and a sum into one rounding, and
``-fno-fast-math``, after ``$CC``'s own flags, cancels a ``-ffast-math``
there, which would reassociate the sums and (gcc) set flush-to-zero for
the whole process at load. One function per power: a switch on p inside
the loop stops it vectorising.

Each function is built three times, as ``target_clones("arch=x86-64-v4",
"avx2", "default")``: AVX-512 (8 doubles per vector), AVX2 (4) and
baseline x86-64 (SSE2, 2). The loader picks the widest one this CPU runs
(an ELF ifunc), so one cached file serves every x86-64 CPU, where a
``-march=native`` build shared through a home directory could raise
SIGILL on an older one. Every clone has the same bits: the loop
vectorises across nodes, never across a node's sum; every step is still
an exactly rounded ``-``, ``fabs``, ``*`` or ``+`` at any vector width;
and ``-ffp-contract=off`` forbids FMA in the AVX-512 clone too. The
clones are asked for only where they are known to build and load (gcc
12 or later, x86-64, ELF, glibc); elsewhere ``CLONES`` is empty and each
function is the one baseline build.

The library is compiled with ``$CC`` (else ``cc``) into
``${XDG_CACHE_HOME:-~/.cache}/plapfd/``, under a name keyed by the
sha256 of the source, the compiler command and the flags. It is written
to a temporary file in that directory and renamed into place, so
processes that build at once each load a whole file. No compiler, a
failed compile, an unwritable cache or a failed load gives None, and the
caller keeps the numpy kernel; ``CC=false`` forces that.
"""

from __future__ import annotations

import ctypes
import functools
import os
import tempfile

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>

/* one clone per SIMD width, chosen by the loader (an ELF ifunc, which
   glibc resolves); gcc >= 12 knows every target named here */
#if defined(__x86_64__) && defined(__ELF__) && defined(__GLIBC__) \
    && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define CLONES __attribute__((target_clones("arch=x86-64-v4", "avx2", "default")))
#else
#define CLONES
#endif

/* u: the padded copy; rows[r]: where interior row r starts in u, each
   len nodes long; shifts[k], w[k]: offset k's flat shift and weight, in
   lexicographic order; acc: one row; out: u's rows from rows[0] on */
#define KERNEL(name, jp)                                                     \
CLONES                                                                       \
void name(const double *u, const int64_t *rows, int64_t nrows, int64_t len,  \
          const int64_t *shifts, const double *w, int64_t npass,             \
          double *restrict acc, double *restrict out)                        \
{                                                                            \
    int64_t mid = npass / 2, s1 = shifts[mid];                               \
    double w1 = w[mid];                                                      \
    for (int64_t r = 0; r < nrows; r++) {                                    \
        const double *x = u + rows[r];                                       \
        for (int64_t i = 0; i < len; i++)                                    \
            acc[i] = 0.0;                                                    \
        for (int64_t k = 0; k < npass; k++) {                                \
            if (k == mid - 1) {                                              \
                for (int64_t i = 0; i < len; i++) {                          \
                    double lo = x[i] - x[i - s1], hi = x[i + s1] - x[i];     \
                    acc[i] = acc[i] - jp(lo) * w1;                           \
                    acc[i] = acc[i] + jp(hi) * w1;                           \
                }                                                            \
                k++;                                                         \
                continue;                                                    \
            }                                                                \
            const double *y = x + shifts[k];                                 \
            double wk = w[k];                                                \
            for (int64_t i = 0; i < len; i++) {                              \
                double d = y[i] - x[i];                                      \
                acc[i] = acc[i] + jp(d) * wk;                                \
            }                                                                \
        }                                                                    \
        memcpy(out + (rows[r] - rows[0]), acc, len * sizeof(double));        \
    }                                                                        \
}

#define JP2(d) (d)
#define JP3(d) (fabs(d) * (d))
#define JP4(d) (((d) * (d)) * (d))
KERNEL(plapfd_apply_p2, JP2)
KERNEL(plapfd_apply_p3, JP3)
KERNEL(plapfd_apply_p4, JP4)
"""

_FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")


@functools.cache
def load():
    """The compiled library, built into the cache on first use, or None."""
    import hashlib
    import shlex
    import subprocess

    try:
        cc = shlex.split(os.environ.get("CC") or "cc")
        key = hashlib.sha256("\0".join([_SOURCE, *cc, *_FLAGS]).encode()).hexdigest()
        cache = os.path.join(
            os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "plapfd"
        )
        path = os.path.join(cache, f"kernel-{key[:24]}.so")
        if not os.path.exists(path):
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                built = subprocess.run(
                    [*cc, *_FLAGS, "-o", tmp, "-x", "c", "-"],
                    input=_SOURCE.encode(), capture_output=True, timeout=120,
                )
                if built.returncode != 0:
                    return None
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(path)
        ptr, size = ctypes.c_void_p, ctypes.c_int64
        for p in (2, 3, 4):
            fn = getattr(lib, f"plapfd_apply_p{p}")
            fn.argtypes = (ptr, ptr, size, size, ptr, ptr, size, ptr, ptr)
            fn.restype = None
        return lib
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def kernel(p: float):
    """The compiled apply for ``p`` in {2, 3, 4}, or None: another p, or
    no library."""
    if p not in (2.0, 3.0, 4.0):
        return None
    lib = load()
    return None if lib is None else getattr(lib, f"plapfd_apply_p{int(p)}")


def bind(fn, padded, rows, shifts, weights, acc, out):
    """``fn`` with every argument bound as a value of its declared ctypes
    type (row length ``len(acc)``): a call on a 401-node row then costs
    about 1.2 µs, where taking the arrays' addresses on each call costs
    10-18 µs. Each pointer comes from ``ndarray.ctypes.data_as``, which
    keeps its array alive, so the callable keeps alive every array it
    reads or writes."""
    arrays = (padded, rows, shifts, weights, acc, out)
    ptr = [a.ctypes.data_as(ctypes.c_void_p) for a in arrays]
    size = [ctypes.c_int64(n) for n in (len(rows), len(acc), len(shifts))]
    return functools.partial(fn, ptr[0], ptr[1], *size[:2], ptr[2], ptr[3], size[2], *ptr[4:])
