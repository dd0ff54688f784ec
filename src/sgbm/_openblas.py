"""ctypes bindings to the OpenBLAS that numpy's linalg extension loads.

numpy >= 2 wheels link scipy-openblas, built with 64-bit integers
(ILP64), and export its symbols as scipy_<name>64_.  Only those names
are bound: a system OpenBLAS exports LP64 names, whose 32-bit integers a
binding declared for 64-bit ones would pass wrongly.  Where the names
are missing (numpy 1.x wheels and other builds, untested), function()
returns None: lapack() is then None, and spectral.Spectrum opens no
Lanczos window and solves the whole spectrum with numpy's eigvalsh and
eigh; without the thread controls, the sweep pool leaves OpenBLAS's
thread count as it is.  The library is opened on first use, so importing
sgbm loads nothing.

dlsym on numpy's linalg extension also searches the libraries it links,
so the library is found without knowing its path.  ctypes releases the
GIL for the length of each call.
"""

import ctypes
from functools import cache

import numpy as np

COL_MAJOR = 102  # LAPACKE's matrix_layout for Fortran order
# the info LAPACKE returns when it cannot allocate a workspace or a transposed copy
MEMORY_ERRORS = (-1010, -1011)

_LAPACK = ("dsyevd", "dstebz", "dstein", "dsbtrd", "dsytrf", "dsytrs")


@cache
def _signatures():
    """name: (argtypes, restype), with the LAPACKE argument lists in comments.

    Built on first use, so that importing sgbm does not import numpy.ctypeslib.
    """
    from numpy.ctypeslib import ndpointer

    lapack_int = ctypes.c_int64  # lapack_int in an ILP64 build
    doubles = ndpointer(np.float64, flags="C_CONTIGUOUS")
    ints = ndpointer(np.int64, flags="C_CONTIGUOUS")
    layout, char, double = ctypes.c_int, ctypes.c_char, ctypes.c_double
    return {
        "openblas_get_num_threads": ([], ctypes.c_int),
        "openblas_set_num_threads": ([ctypes.c_int], None),
        # layout, jobz, uplo, n, a, lda, w
        "LAPACKE_dsyevd": ([layout, char, char, lapack_int, doubles, lapack_int, doubles],
                           lapack_int),
        # range, order, n, vl, vu, il, iu, abstol, d, e, m, nsplit, w, iblock, isplit
        "LAPACKE_dstebz": ([char, char, lapack_int, double, double, lapack_int, lapack_int,
                            double, doubles, doubles, ints, ints, doubles, ints, ints],
                           lapack_int),
        # layout, n, d, e, m, w, iblock, isplit, z, ldz, ifailv
        "LAPACKE_dstein": ([layout, lapack_int, doubles, doubles, lapack_int, doubles, ints,
                            ints, doubles, lapack_int, ints], lapack_int),
        # layout, vect, uplo, n, kd, ab, ldab, d, e, q, ldq
        "LAPACKE_dsbtrd": ([layout, char, char, lapack_int, lapack_int, doubles, lapack_int,
                            doubles, doubles, doubles, lapack_int], lapack_int),
        # layout, uplo, n, a, lda, ipiv
        "LAPACKE_dsytrf": ([layout, char, lapack_int, doubles, lapack_int, ints], lapack_int),
        # layout, uplo, n, nrhs, a, lda, ipiv, b, ldb
        "LAPACKE_dsytrs": ([layout, char, lapack_int, lapack_int, doubles, lapack_int, ints,
                            doubles, lapack_int], lapack_int),
    }


@cache
def _library():
    try:
        return ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None


@cache
def function(name):
    """The routine `name` of _signatures(), bound, or None when it is not exported."""
    argtypes, restype = _signatures()[name]
    try:
        bound = getattr(_library(), f"scipy_{name}64_")
    except AttributeError:
        return None
    bound.argtypes, bound.restype = argtypes, restype
    return bound


def lapack():
    """{"dsyevd": ..., "dsytrs": ...}: the LAPACKE routines
    spectral.Spectrum calls, or None unless every one of them is bound."""
    routines = {name: function(f"LAPACKE_{name}") for name in _LAPACK}
    return None if None in routines.values() else routines
