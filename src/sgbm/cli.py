"""Command-line entry point.

Subcommands: generate, cluster, spectrum, sweep, validate.  One flat
config file (key = value lines, # comments) drives any subcommand; the
key namespaces are model.*, kernel_in.*, kernel_out.*, run.*.  Each
subcommand accepts only the keys it reads (KEYS); any other key is
rejected before any work starts.

Exit codes: 0 ok, 2 config problem, 3 degenerate model (mu_in = mu_out),
4 numeric failure (eigensolver breakdown, a failed validation check, or
out of memory).
"""

import argparse
import collections
import os
import sys
import time

from . import harness, kernels, model, oracles, spectral

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_NUMERIC = 4

class ConfigError(ValueError):
    pass


def parse_config(path, command):
    """Flat 'section.key = value' file into nested dicts; only the keys command reads."""
    sections = {"model": {}, "kernel_in": {}, "kernel_out": {}, "run": {}}
    if path is None:
        return sections
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        section, _, name = key.partition(".")
        if key not in KEYS[command] and f"{section}.*" not in KEYS[command]:
            raise ConfigError(f"{path}:{lineno}: sgbm {command} does not read {key}")
        if name in sections[section]:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        sections[section][name] = value
    return sections


def _int(section, name, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{section}.{name} must be an integer, got {value!r}")


def _float(section, name, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{section}.{name} must be a number, got {value!r}")


def _int_list(section, name, value):
    """Comma list '1,2,3' or range 'a:b' (half-open)."""
    value = value.strip()
    if ":" in value:
        lo, hi = value.split(":", 1)
        return list(range(_int(section, name, lo), _int(section, name, hi)))
    return [_int(section, name, part) for part in value.split(",") if part.strip()]


def _float_list(section, name, value):
    return [_float(section, name, part) for part in value.split(",") if part.strip()]


def _kernel_pair(config, d, missing):
    """(f_in, f_out) from the kernel blocks; missing is the error when one is absent."""
    if not config["kernel_in"] or not config["kernel_out"]:
        raise ConfigError(missing)
    try:
        return (kernels.kernel_from_config(config["kernel_in"], d),
                kernels.kernel_from_config(config["kernel_out"], d))
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_params(config, seed_override=None):
    """SgbmParams from the model/kernel sections."""
    mdl = config["model"]
    if "n" not in mdl:
        raise ConfigError("model.n is required")
    n = _int("model", "n", mdl["n"])
    d = _int("model", "d", mdl.get("d", "1"))
    f_in, f_out = _kernel_pair(config, d, "kernel_in.* and kernel_out.* blocks are required")
    seed = seed_override
    if seed is None:
        seed = _int("run", "seed", config["run"].get("seed", "0"))
    try:
        return model.SgbmParams(n=n, d=d, f_in=f_in, f_out=f_out, seed=seed)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _say(args, message):
    if not args.quiet:
        print(message)


def cmd_generate(args, config):
    params = build_params(config, args.seed)
    graph, labels, positions = model.sample_graph(params)
    os.makedirs(args.out, exist_ok=True)
    model.write_graph(os.path.join(args.out, "edges.txt"), graph, params.d, params.seed)
    model.write_labels(os.path.join(args.out, "labels.txt"), labels)
    model.write_positions(os.path.join(args.out, "positions.csv"), positions)
    _say(args, f"wrote edges.txt, labels.txt, positions.csv under {args.out} "
               f"(n={params.n}, edges={graph.edge_count()})")
    return EXIT_OK


def cmd_cluster(args, config):
    run = config["run"]
    algorithm = run.get("algorithm", "hosc")
    if algorithm not in ("hosc", "hosc_li"):
        raise ConfigError(f"run.algorithm must be hosc or hosc_li, got {algorithm!r}")
    li_iterate = run.get("li_iterate", "false").lower()
    if li_iterate not in ("true", "false"):
        raise ConfigError(f"run.li_iterate must be true or false, got {run['li_iterate']!r}")
    if "li_iterate" in run and algorithm != "hosc_li":
        raise ConfigError(f"sgbm cluster does not read run.li_iterate with run.algorithm = "
                          f"{algorithm}: only hosc_li refines")
    if "labels" in run and "graph" not in run:
        raise ConfigError("run.labels needs run.graph: a sampled graph has its own labels")
    truth = None
    if "graph" in run:
        unread = [f"model.{key}" for key in config["model"]]
        if "seed" in run:
            unread.append("run.seed")
        if args.seed is not None:
            unread.append("--seed")
        if unread:
            raise ConfigError(f"sgbm cluster does not read {unread[0]} with run.graph: "
                              "the graph file is clustered as it is")
        try:
            graph, d, _ = model.read_graph(run["graph"])
            if graph.n < 2:
                raise ValueError(f"{run['graph']}: header has n = {graph.n}; "
                                 "clustering needs n >= 2")
        except (ValueError, OSError) as exc:
            raise ConfigError(f"bad graph file: {exc}")
        f_in, f_out = _kernel_pair(config, d, "clustering a graph file still needs kernel "
                                              "blocks (they define mu_in and mu_out)")
        if "labels" in run:
            try:
                truth = model.read_labels(run["labels"])
            except (ValueError, OSError) as exc:
                raise ConfigError(f"bad labels file: {exc}")
            if len(truth) != graph.n:
                raise ConfigError("truth labels length does not match the graph")
    else:
        params = build_params(config, args.seed)
        graph, truth, _ = model.sample_graph(params)
        f_in, f_out = params.f_in, params.f_out

    mu_in, mu_out = kernels.edge_density(f_in), kernels.edge_density(f_out)
    spectral.ideal_eigenvalue(mu_in, mu_out, graph.n)  # a degenerate model solves nothing
    spectrum = spectral.Spectrum(graph)
    predicted, report = spectral.cluster(spectrum, algorithm, mu_in, mu_out,
                                         iterate=li_iterate == "true")
    # selection.csv fills the ranks outside the noise bulk and the selected rank's
    # neighbours (spectral.profile_ranks), which the windows hold; nothing is solved
    # for the other ranks, whose cells stay empty.  Every solve runs before any
    # file is written, so a failed one leaves none.
    ranks = spectral.profile_ranks(spectrum, report.selected_index)
    eigenvalues = {rank: float(spectrum.values(rank, rank)[0]) for rank in ranks}
    accuracies = (dict(spectral.per_eigenvector_accuracy(spectrum, truth, ranks))
                  if truth is not None else {})

    os.makedirs(args.out, exist_ok=True)
    model.write_labels(os.path.join(args.out, "predicted.labels"), predicted)
    model.write_csv(os.path.join(args.out, "selection.csv"),
                    ["rank", "eigenvalue", "accuracy", "selected"],
                    ([str(rank), f"{eigenvalues[rank]:.9g}" if rank in eigenvalues else "",
                      f"{accuracies[rank]:.6f}" if rank in accuracies else "",
                      "1" if rank == report.selected_index else "0"]
                     for rank in range(1, graph.n + 1)))
    _say(args, f"selected rank {report.selected_index} "
               f"(lambda*={report.lambda_star:.4f}, lambda={report.lambda_selected:.4f})")
    sources = collections.Counter(spectrum.source(rank) for rank in ranks)
    _say(args, f"profile: {len(ranks)} ranks from "
               + ", ".join(f"the {source} ({count})" for source, count in sources.items()))
    if truth is not None:
        _say(args, f"accuracy {spectral.accuracy(truth, predicted):.4f}")
    return EXIT_OK


# run key -> parser for the keys sgbm spectrum reads; a key left out takes
# harness.spectrum_experiment's default
_SPECTRUM_KEYS = {"K": _int, "threshold": _float, "window": _float}


def cmd_spectrum(args, config):
    params = build_params(config, args.seed)
    run = config["run"]
    kw = {key: parse("run", key, run[key]) for key, parse in _SPECTRUM_KEYS.items() if key in run}
    try:
        report, measure = harness.spectrum_experiment(params, out=args.out, **kw)
    except ValueError as exc:
        raise ConfigError(str(exc))
    _say(args, f"eigenvalues above threshold: {len(report.entries)}, "
               f"outliers beyond window: {report.outlier_count}, "
               f"max distance: {report.max_distance:.5f}, "
               f"truncation tail bound: {measure.tail_bound:.2e}")
    return EXIT_OK


# preset -> (harness function, {run key: parser} for the keys it reads)
_PRESETS = {
    "fig3": (harness.fig3_sweep,
             {"n_list": _int_list, "r_in": _float, "r_out": _float}),
    "fig4": (harness.fig4_sweep,
             {"n": _int, "r_in_grid": _float_list, "r_out": _float}),
    "waxman": (harness.waxman_sweep,
               {"mode": lambda section, name, value: value, "grid": _float_list,
                "fixed_out": _float, "s": _float, "q": _float, "n_list": _int_list}),
}

# command -> the keys it reads; "section.*" takes a whole kernel block, which
# kernels.kernel_from_config checks.  sweep narrows its preset keys to the chosen preset's;
# cluster drops the sampling keys with run.graph, and run.li_iterate without hosc_li.
_MODEL_KEYS = {"model.n", "model.d", "run.seed", "kernel_in.*", "kernel_out.*"}
_SWEEP_KEYS = {"run.preset", "run.seeds", "run.seed", "run.workers"}
KEYS = {
    "generate": _MODEL_KEYS,
    "cluster": _MODEL_KEYS | {"run.algorithm", "run.li_iterate", "run.graph", "run.labels"},
    "spectrum": _MODEL_KEYS | {f"run.{key}" for key in _SPECTRUM_KEYS},
    "sweep": _SWEEP_KEYS | {f"run.{key}" for _, parsers in _PRESETS.values() for key in parsers},
    "validate": set(),
}


def cmd_sweep(args, config):
    run = config["run"]
    preset = run.get("preset")
    if preset not in _PRESETS:
        raise ConfigError("run.preset must be one of fig3, fig4, waxman")
    kw = {}
    if "seeds" in run:
        kw["seeds"] = _int_list("run", "seeds", run["seeds"])
    master = args.seed if args.seed is not None else _int("run", "seed", run.get("seed", "0"))
    workers = _int("run", "workers", run.get("workers", "1"))
    if workers < 1:
        raise ConfigError("run.workers must be >= 1")

    sweep, parsers = _PRESETS[preset]
    foreign = sorted(key for key in run if f"run.{key}" not in _SWEEP_KEYS and key not in parsers)
    if foreign:
        raise ConfigError(f"sgbm sweep does not read run.{foreign[0]} with preset {preset}")
    kw.update((key, parse("run", key, run[key])) for key, parse in parsers.items() if key in run)
    try:
        rows = sweep(master_seed=master, workers=workers, **kw)[0]
    except ValueError as exc:
        raise ConfigError(str(exc))

    os.makedirs(args.out, exist_ok=True)
    harness.write_results(os.path.join(args.out, "results.csv"), rows)
    harness.write_timings(os.path.join(args.out, "timings.csv"), rows)
    echo = {f"{section}.{key}": value
            for section, block in config.items() for key, value in block.items()}
    echo["cli.preset"] = preset
    echo["cli.master_seed"] = master
    harness.write_meta(os.path.join(args.out, "meta.txt"), echo, workers=workers)
    errors = sum(1 for row in rows if row.note.startswith("error:"))
    _say(args, f"wrote {len(rows)} rows to {args.out}/results.csv"
               + (f" ({errors} error rows)" if errors else ""))
    return EXIT_OK


def cmd_validate(args, config):
    width = max(len(name) for name, _ in oracles.CHECKS)
    passed = True
    for name, check in oracles.CHECKS:
        start = time.perf_counter()
        ok, detail = check()
        passed &= ok
        _say(args, f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}  {detail}  "
                   f"[{time.perf_counter() - start:.1f}s]")
    if passed:
        _say(args, "all checks passed")
        return EXIT_OK
    return EXIT_NUMERIC


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sgbm",
        description="Sample block-model graphs on the torus, cluster them "
                    "spectrally, and check the spectrum against theory.")
    parser.add_argument("command", choices=["generate", "cluster", "spectrum",
                                            "sweep", "validate"])
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--out", default="sgbm_out", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    handlers = {
        "generate": cmd_generate,
        "cluster": cmd_cluster,
        "spectrum": cmd_spectrum,
        "sweep": cmd_sweep,
        "validate": cmd_validate,
    }
    try:
        if args.seed is not None and not (0 <= args.seed < 2**64):
            raise ConfigError("--seed must fit in 64 unsigned bits")
        config = parse_config(args.config, args.command)
        if args.command != "validate" and args.config is None:
            raise ConfigError(f"{args.command} needs --config")
        return handlers[args.command](args, config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except spectral.DegenerateModelError as exc:
        print(f"degenerate model: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except spectral.EigendecompositionError as exc:
        print(f"eigensolver failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
