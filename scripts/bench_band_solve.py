#!/usr/bin/env python3
"""Cost and thread dependence of a Lanczos window's band solve.

    PYTHONPATH=src python3 scripts/bench_band_solve.py --sizes 100,300,500,1000 --repeats 5

For each order m, a seeded random symmetric band of half-width 2 (the
windows' block size) is solved three ways, on numpy's OpenBLAS through
LAPACKE, at one thread and at the default thread count:

- dsbev, jobz V: every Ritz pair in one call, as spectral._Window does;
- dsbevd, jobz V: the divide-and-conquer driver, for its thread bits;
- dsbtrd + dstebz + 4 dstein: the earlier path, which reduced the band,
  bisected every value and solved four vectors, the ranks one request
  reads.

Prints one JSON object: per m and thread count, the median seconds of
each, and whether dsbev's and dsbevd's values and vectors have the same
bits at both thread counts.
"""

import argparse
import ctypes
import json
import statistics
import time

import numpy as np
from numpy.ctypeslib import ndpointer

from sgbm import _openblas

COL, WIDTH = _openblas.COL_MAJOR, 2
LINT, CHAR, DOUBLE = ctypes.c_int64, ctypes.c_char, ctypes.c_double
DOUBLES = ndpointer(np.float64, flags="C_CONTIGUOUS")
INTS = ndpointer(np.int64, flags="C_CONTIGUOUS")
# the routines sgbm does not bind; dsbevd takes dsbev's arguments
SIGNATURES = {
    "dsbevd": [ctypes.c_int, CHAR, CHAR, LINT, LINT, DOUBLES, LINT, DOUBLES, DOUBLES, LINT],
    "dsbtrd": [ctypes.c_int, CHAR, CHAR, LINT, LINT, DOUBLES, LINT, DOUBLES, DOUBLES, DOUBLES,
               LINT],
    "dstebz": [CHAR, CHAR, LINT, DOUBLE, DOUBLE, LINT, LINT, DOUBLE, DOUBLES, DOUBLES, INTS,
               INTS, DOUBLES, INTS, INTS],
    "dstein": [ctypes.c_int, LINT, DOUBLES, DOUBLES, LINT, DOUBLES, INTS, INTS, DOUBLES, LINT,
               INTS],
}


def bound(name):
    routine = getattr(_openblas._library(), f"scipy_LAPACKE_{name}64_")
    routine.argtypes, routine.restype = SIGNATURES[name], LINT
    return routine


def driver(routine, band):
    m = len(band)
    values, vectors = np.empty(m), np.empty((m, m))
    assert routine(COL, b"V", b"L", m, WIDTH, band.copy(), WIDTH + 1, values, vectors, m) == 0
    return values, vectors


def earlier(routines, band, reads=4):
    dsbtrd, dstebz, dstein = routines
    m = len(band)
    d, e, q = np.empty(m), np.empty(m - 1), np.zeros((m, m))
    assert dsbtrd(COL, b"V", b"L", m, WIDTH, band.copy(), WIDTH + 1, d, e, q, m) == 0
    found, nsplit = np.zeros(1, np.int64), np.zeros(1, np.int64)
    theta, blocks, split = np.zeros(m), np.zeros(m, np.int64), np.zeros(m, np.int64)
    assert dstebz(b"A", b"E", m, 0.0, 0.0, 0, 0, 0.0, d, e, found, nsplit, theta, blocks,
                  split) == 0
    for i in range(m - reads, m):
        # LAPACKE checks m entries of the values for NaN
        value, vector, failed = np.zeros(m), np.zeros(m), np.zeros(1, np.int64)
        value[0] = theta[i]
        assert dstein(COL, m, d, e, 1, value, blocks[i:i + 1].copy(), split, vector, m,
                      failed) == 0
        np.einsum("ji,j->i", q, vector)


def median_s(solve, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        solve()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--sizes", default="100,300,500,1000")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    get = _openblas.function("openblas_get_num_threads")
    put = _openblas.function("openblas_set_num_threads")
    default = get()
    dsbev, dsbevd = _openblas.lapack()["dsbev"], bound("dsbevd")
    old = [bound(name) for name in ("dsbtrd", "dstebz", "dstein")]
    report = {"default_threads": default, "sizes": {}}
    for m in map(int, args.sizes.split(",")):
        band = np.random.default_rng(m).standard_normal((m, WIDTH + 1))
        row, bits = {}, {"dsbev": [], "dsbevd": []}
        for threads in (1, default):
            put(threads)
            try:
                for name, routine in (("dsbev", dsbev), ("dsbevd", dsbevd)):
                    bits[name].append(b"".join(a.tobytes() for a in driver(routine, band)))
                row[f"{threads} threads"] = {
                    "dsbev_s": median_s(lambda: driver(dsbev, band), args.repeats),
                    "dsbevd_s": median_s(lambda: driver(dsbevd, band), args.repeats),
                    "dsbtrd_dstebz_4dstein_s": median_s(lambda: earlier(old, band), args.repeats),
                }
            finally:
                put(default)
        row["same_bits_at_1_and_default_threads"] = {
            name: runs[0] == runs[-1] for name, runs in bits.items()}
        report["sizes"][m] = row
        print(m, json.dumps(row), flush=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
