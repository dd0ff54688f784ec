#!/usr/bin/env python3
"""Time and memory of sgbm's graph file I/O on generate_cluster_gbm's graphs.

    PYTHONPATH=src python3 scripts/bench_graph_io.py --sizes 1000,2000,4000,8000 --repeats 7

For each n, the graph of perfbench's generate_cluster_gbm workload
(Indicator 0.12 / 0.05, d = 1, seed 0) is sampled once, then:

- write_s, read_s: the median seconds of model.write_graph and
  model.read_graph on it, over the repeats, alternating the two;
- write_peak_mb, read_peak_mb: the tracemalloc peak of one call of each,
  against floor_mb, the n^2 + 16 E bytes of the uint8 adjacency and of
  the parsed uint64 edge array;
- maxrss_mb: the ru_maxrss of one fresh process that runs sgbm generate,
  then sgbm cluster (hosc_li, with the labels) on the written files,
  three times;
- edges_sha256: the sha256 of the edges.txt that write_graph wrote, so
  runs of two versions of sgbm show whether their bytes are the same.

Prints one line per n as it goes, then one JSON object.  The sgbm it
measures is the one this interpreter imports, in this process and in the
child.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import sgbm
from sgbm import kernels, model

CONFIG = ("kernel_in.kind = indicator\nkernel_in.r = 0.12\n"
          "kernel_out.kind = indicator\nkernel_out.r = 0.05\n")
# the child: generate, then cluster the written files, three times; prints ru_maxrss in MB
CHILD = """
import resource, sys
from sgbm import cli
for _ in range(3):
    for command in ("generate", "cluster"):
        argv = [command, "--config", sys.argv[1] + "/" + command + ".cfg",
                "--out", sys.argv[1] + "/" + command, "--quiet"]
        assert cli.main(argv) == 0, command
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def maxrss_mb(n, directory):
    (directory / "generate.cfg").write_text(f"model.n = {n}\nmodel.d = 1\n{CONFIG}run.seed = 0\n")
    data = directory / "generate"
    (directory / "cluster.cfg").write_text(
        f"{CONFIG}run.graph = {data / 'edges.txt'}\nrun.labels = {data / 'labels.txt'}\n"
        "run.algorithm = hosc_li\n")
    env = {**os.environ, "PYTHONPATH": str(Path(sgbm.__file__).parent.parent)}
    out = subprocess.run([sys.executable, "-c", CHILD, str(directory)], env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out.split()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--sizes", default="1000,2000,4000,8000")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    report = {"sgbm": str(Path(sgbm.__file__).parent), "repeats": args.repeats, "sizes": {}}
    for n in map(int, args.sizes.split(",")):
        params = model.SgbmParams(n=n, d=1, f_in=kernels.Indicator(0.12),
                                  f_out=kernels.Indicator(0.05), seed=0)
        graph = model.sample_graph(params)[0]
        with tempfile.TemporaryDirectory() as scratch:
            directory = Path(scratch)
            path = directory / "edges.txt"
            times = {"write": [], "read": []}
            for _ in range(args.repeats):
                for name, call in (("write", lambda: model.write_graph(path, graph, 1, 0)),
                                   ("read", lambda: model.read_graph(path))):
                    start = time.perf_counter()
                    call()
                    times[name].append(time.perf_counter() - start)
            row = {
                "edges": graph.edge_count(),
                "write_s": statistics.median(times["write"]),
                "read_s": statistics.median(times["read"]),
                "write_peak_mb": peak_mb(lambda: model.write_graph(path, graph, 1, 0)),
                "read_peak_mb": peak_mb(lambda: model.read_graph(path)),
                "floor_mb": (n * n + 16 * graph.edge_count()) / 1e6,
                "edges_sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
                "maxrss_mb": maxrss_mb(n, directory),
            }
        report["sizes"][n] = row
        print(n, json.dumps(row), flush=True)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
