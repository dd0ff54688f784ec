import numpy as np
import pytest

from sgbm import cli, harness, kernels, model, spectral
from sgbm.model import Graph


GBM_CONFIG = """\
model.n = 200
model.d = 1
kernel_in.kind = indicator
kernel_in.r = 0.2
kernel_out.kind = indicator
kernel_out.r = 0.05
"""
# what cluster reads besides run.* when it clusters a graph file
KERNEL_CONFIG = GBM_CONFIG[GBM_CONFIG.index("kernel_in"):]


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- parse_config ------------------------------------------------------------

def test_parse_config_happy(tmp_path):
    path = write_config(tmp_path, """\
# a comment
model.n = 100   # trailing comment

kernel_in.kind = constant
kernel_in.p = 0.9
run.seed = 3
""")
    config = cli.parse_config(path, "generate")
    assert config["model"] == {"n": "100"}
    assert config["kernel_in"] == {"kind": "constant", "p": "0.9"}
    assert config["run"] == {"seed": "3"}
    assert config["kernel_out"] == {}


@pytest.mark.parametrize("line", [
    "n = 100",                 # no namespace
    "model.n 100",             # no equals sign
    "physics.n = 100",         # unknown section
    "model.radius = 0.2",      # unknown model key
    "run.fast = yes",          # unknown run key
])
def test_parse_config_rejects(tmp_path, line):
    path = write_config(tmp_path, line + "\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(path, "generate")


def test_parse_config_rejects_duplicates(tmp_path):
    path = write_config(tmp_path, "model.n = 100\nmodel.n = 200\n")
    with pytest.raises(cli.ConfigError):
        cli.parse_config(path, "generate")


def test_parse_config_missing_file(tmp_path):
    with pytest.raises(cli.ConfigError):
        cli.parse_config(str(tmp_path / "nope.cfg"), "generate")


def test_build_params_requirements(tmp_path):
    config = cli.parse_config(write_config(tmp_path, "model.d = 1\n"), "generate")
    with pytest.raises(cli.ConfigError, match="model.n is required"):
        cli.build_params(config)
    config = cli.parse_config(write_config(tmp_path, "model.n = 100\n", "b.cfg"), "generate")
    with pytest.raises(cli.ConfigError, match="kernel_in"):
        cli.build_params(config)


# --- generate ---------------------------------------------------------------

def test_generate_writes_three_files(tmp_path):
    cfg = write_config(tmp_path, GBM_CONFIG)
    out = tmp_path / "out"
    code = cli.main(["generate", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "edges.txt", "labels.txt", "positions.csv"]
    graph, d, seed = model.read_graph(out / "edges.txt")
    assert (graph.n, d, seed) == (200, 1, 0)
    assert len(model.read_labels(out / "labels.txt")) == 200


def test_generate_rejects_odd_n(tmp_path, capsys):
    cfg = write_config(tmp_path, GBM_CONFIG.replace("model.n = 200", "model.n = 201"))
    code = cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "balanced blocks" in capsys.readouterr().err


def test_generate_rejects_oversized_radius(tmp_path):
    cfg = write_config(tmp_path, GBM_CONFIG.replace("kernel_in.r = 0.2",
                                                    "kernel_in.r = 0.6"))
    assert cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_generate_rejects_bad_seed(tmp_path):
    cfg = write_config(tmp_path, GBM_CONFIG)
    code = cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--seed", "-1"])
    assert code == 2


def test_degenerate_model_exit_code(tmp_path, monkeypatch, count_routines):
    cfg = write_config(tmp_path, GBM_CONFIG.replace("kernel_out.r = 0.05",
                                                    "kernel_out.r = 0.2"))
    out = tmp_path / "o"
    calls = count_routines(monkeypatch, "dsyevd", "dsytrf", "window", "shifted window")
    code = cli.main(["cluster", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 3
    # lambda* is undefined, so nothing is solved
    assert calls == {"dsyevd": [], "dsytrf": [], "window": [], "shifted window": []}


def test_unwritable_out_is_config_error(tmp_path):
    cfg = write_config(tmp_path, GBM_CONFIG)
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    code = cli.main(["generate", "--config", cfg,
                     "--out", str(blocker / "sub"), "--quiet"])
    assert code == 2


def test_missing_config_flag(capsys):
    assert cli.main(["generate"]) == 2
    assert "needs --config" in capsys.readouterr().err


# --- cluster ----------------------------------------------------------------

def test_cluster_generated_graph(tmp_path, capsys):
    cfg = write_config(tmp_path, GBM_CONFIG + "run.seed = 1\n")
    out = tmp_path / "out"
    code = cli.main(["cluster", "--config", cfg, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    printed_rank = int(stdout.split("selected rank ")[1].split()[0])
    printed_acc = float(stdout.split("accuracy")[-1].strip())

    predicted = model.read_labels(out / "predicted.labels")
    assert len(predicted) == 200
    assert set(predicted) <= {1, 2}

    lines = (out / "selection.csv").read_text().splitlines()
    assert lines[0] == "rank,eigenvalue,accuracy,selected"
    assert len(lines) == 201
    selected = [line.split(",") for line in lines[1:] if line.endswith(",1")]
    assert len(selected) == 1
    assert int(selected[0][0]) == printed_rank
    # hosc's output is the sign split of the selected eigenvector, so the
    # printed accuracy must agree with that row of the profile
    assert abs(float(selected[0][2]) - printed_acc) < 1e-4


WAXMAN_KERNELS = """\
kernel_in.kind = waxman
kernel_in.q = 0.9
kernel_in.s = 2
kernel_out.kind = waxman
kernel_out.q = 0.3
kernel_out.s = 2
"""


def test_generate_then_cluster_waxman_at_d4(tmp_path):
    """Waxman coefficients need no tensor grid, so any d runs end to end."""
    data, out = tmp_path / "data", tmp_path / "out"
    cfg = write_config(tmp_path, "model.n = 200\nmodel.d = 4\n" + WAXMAN_KERNELS)
    assert cli.main(["generate", "--config", cfg, "--out", str(data), "--quiet"]) == 0
    cfg = write_config(tmp_path, WAXMAN_KERNELS + f"run.graph = {data / 'edges.txt'}\n"
                       f"run.labels = {data / 'labels.txt'}\n", name="cluster.cfg")
    assert cli.main(["cluster", "--config", cfg, "--out", str(out)]) == 0
    assert len(model.read_labels(out / "predicted.labels")) == 200


def test_cluster_selection_profile_is_complete(tmp_path):
    cfg = write_config(tmp_path, GBM_CONFIG + "run.seed = 1\n")
    out = tmp_path / "out"
    assert cli.main(["cluster", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    lines = (out / "selection.csv").read_text().splitlines()[1:]
    ranks = [int(line.split(",")[0]) for line in lines]
    assert ranks == list(range(1, 201))
    accs = [float(line.split(",")[2]) for line in lines]
    assert all(0.5 <= acc <= 1.0 for acc in accs)
    eigs = [float(line.split(",")[1]) for line in lines]
    assert eigs == sorted(eigs, reverse=True)


def test_cluster_two_clique_file(tmp_path, capsys):
    half = 10
    a = np.zeros((2 * half, 2 * half), dtype=np.uint8)
    a[:half, :half] = 1
    a[half:, half:] = 1
    np.fill_diagonal(a, 0)
    model.write_graph(tmp_path / "edges.txt", Graph(n=2 * half, adjacency=a), 1, 0)
    model.write_labels(tmp_path / "truth.txt", [1] * half + [2] * half)
    cfg = write_config(tmp_path, f"""\
kernel_in.kind = constant
kernel_in.p = 1.0
kernel_out.kind = constant
kernel_out.p = 0.0
run.graph = {tmp_path / 'edges.txt'}
run.labels = {tmp_path / 'truth.txt'}
""")
    out = tmp_path / "out"
    code = cli.main(["cluster", "--config", cfg, "--out", str(out)])
    assert code == 0
    assert "accuracy 1.0000" in capsys.readouterr().out


def test_cluster_sparse_gbm_parameters(tmp_path, capsys):
    """HOSC through the CLI at n=2000, r_in=0.08, r_out=0.02.

    Selection at these radii is unreliable: the nearest uninformative
    limit atom sits 0.0033 from the informative one while eigenvalue
    fluctuations are about twice that, and the default seed lands on a
    spatial harmonic (rank 9, accuracy 0.594).  Kept at the stated
    threshold; expected to fail.
    """
    cfg = write_config(tmp_path, """\
model.n = 2000
kernel_in.kind = indicator
kernel_in.r = 0.08
kernel_out.kind = indicator
kernel_out.r = 0.02
""")
    out = tmp_path / "out"
    assert cli.main(["cluster", "--config", cfg, "--out", str(out)]) == 0
    printed = float(capsys.readouterr().out.split("accuracy")[-1].strip())
    assert printed >= 0.95


@pytest.mark.parametrize("missing", ["graph", "labels"])
def test_cluster_missing_graph_file(tmp_path, capsys, missing):
    params = model.SgbmParams(n=20, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05), seed=0)
    graph, labels, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "graph.txt", graph, 1, 0)
    model.write_labels(tmp_path / "labels.txt", labels)
    (tmp_path / f"{missing}.txt").unlink()
    cfg = write_config(tmp_path, KERNEL_CONFIG + f"run.graph = {tmp_path / 'graph.txt'}\n"
                                               f"run.labels = {tmp_path / 'labels.txt'}\n")
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: bad {missing} file:" in capsys.readouterr().err


def test_cluster_rejects_unknown_algorithm(tmp_path):
    cfg = write_config(tmp_path, GBM_CONFIG + "run.algorithm = kmeans\n")
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cluster_truth_length_mismatch(tmp_path):
    params = model.SgbmParams(n=20, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05), seed=0)
    graph, labels, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 0)
    model.write_labels(tmp_path / "truth.txt", labels[:-2])
    cfg = write_config(tmp_path, f"""\
kernel_in.kind = indicator
kernel_in.r = 0.2
kernel_out.kind = indicator
kernel_out.r = 0.05
run.graph = {tmp_path / 'edges.txt'}
run.labels = {tmp_path / 'truth.txt'}
""")
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cluster_graph_file_without_kernels(tmp_path):
    params = model.SgbmParams(n=20, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05), seed=0)
    graph, _, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 0)
    cfg = write_config(tmp_path, f"run.graph = {tmp_path / 'edges.txt'}\n")
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_cluster_local_improvement_option(tmp_path, capsys):
    cfg = write_config(tmp_path, GBM_CONFIG
                       + "run.algorithm = hosc_li\nrun.li_iterate = true\n")
    out = tmp_path / "out"
    code = cli.main(["cluster", "--config", cfg, "--out", str(out)])
    assert code == 0
    printed = float(capsys.readouterr().out.split("accuracy")[-1].strip())
    assert printed >= 0.9


def test_cluster_rejects_bad_li_iterate(tmp_path):
    cfg = write_config(tmp_path, GBM_CONFIG + "run.algorithm = hosc_li\nrun.li_iterate = yes\n")
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("algorithm", ["", "run.algorithm = hosc\n"], ids=["default", "hosc"])
@pytest.mark.parametrize("value", ["true", "false"])
def test_cluster_rejects_li_iterate_without_hosc_li(tmp_path, capsys, algorithm, value):
    cfg = write_config(tmp_path, GBM_CONFIG + algorithm + f"run.li_iterate = {value}\n")
    out = tmp_path / "o"
    assert cli.main(["cluster", "--config", cfg, "--out", str(out)]) == 2
    assert "sgbm cluster does not read run.li_iterate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,flag", [
    ("model.n = 200\n", []), ("model.d = 1\n", []), ("run.seed = 1\n", []), ("", ["--seed", "1"]),
], ids=["model.n", "model.d", "run.seed", "--seed"])
def test_cluster_graph_file_rejects_sampling_keys(tmp_path, capsys, line, flag):
    params = model.SgbmParams(n=20, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05), seed=0)
    model.write_graph(tmp_path / "edges.txt", model.sample_graph(params)[0], 1, 0)
    graph_line = f"run.graph = {tmp_path / 'edges.txt'}\n"
    out = tmp_path / "o"
    cfg = write_config(tmp_path, KERNEL_CONFIG + graph_line)
    assert cli.main(["cluster", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    cfg = write_config(tmp_path, KERNEL_CONFIG + line + graph_line)
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o2")] + flag) == 2
    key = flag[0] if flag else line.split(" =")[0]
    assert f"sgbm cluster does not read {key} with run.graph" in capsys.readouterr().err
    assert not (tmp_path / "o2").exists()


KERNEL_BLOCKS = {"constant": {"p": "0.3"}, "indicator": {"r": "0.2"},
                 "waxman": {"q": "0.7", "s": "1.5"}}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("kind,name", [(kind, name) for kind, block in KERNEL_BLOCKS.items()
                                       for name in block])
def test_cluster_rejects_non_finite_kernel_parameter(tmp_path, kind, name, bad):
    block = KERNEL_BLOCKS[kind] | {"kind": kind, name: bad}
    cfg = write_config(tmp_path, "model.n = 200\nkernel_out.kind = constant\nkernel_out.p = 0.1\n"
                       + "".join(f"kernel_in.{key} = {value}\n" for key, value in block.items()))
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def hosc_then_eigendecompose(graph, mu_in, mu_out, truth, algorithm, out):
    """cluster's outputs as composed before it reused one spectrum: spectral.hosc,
    then a second, full eigendecompose for selection.csv."""
    predicted, report = spectral.hosc(graph, mu_in, mu_out)
    if algorithm == "hosc_li":
        predicted = spectral.local_improvement(graph, predicted)
    out.mkdir()
    model.write_labels(out / "predicted.labels", predicted)
    spectrum = spectral.eigendecompose(graph)
    profile = (spectral.per_eigenvector_accuracy(spectrum, truth)
               if truth is not None else [(rank + 1, None) for rank in range(graph.n)])
    with open(out / "selection.csv", "w") as fh:
        fh.write("rank,eigenvalue,accuracy,selected\n")
        for rank, acc in profile:
            acc_cell = f"{acc:.6f}" if acc is not None else ""
            sel = 1 if rank == report.selected_index else 0
            fh.write(f"{rank},{spectrum.eigenvalues[rank - 1]:.9g},{acc_cell},{sel}\n")


@pytest.mark.parametrize("algorithm,with_truth", [("hosc", True), ("hosc_li", False)])
def test_cluster_solves_once_with_unchanged_outputs(tmp_path, monkeypatch, count_routines,
                                                    algorithm, with_truth):
    params = model.SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05), seed=5)
    graph, truth, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 5)
    model.write_labels(tmp_path / "truth.txt", truth)
    text = KERNEL_CONFIG + f"run.algorithm = {algorithm}\nrun.graph = {tmp_path / 'edges.txt'}\n"
    if with_truth:
        text += f"run.labels = {tmp_path / 'truth.txt'}\n"
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"

    calls = count_routines(monkeypatch, "dsyevd", "dsytrf")
    assert cli.main(["cluster", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    assert calls == {"dsyevd": [200], "dsytrf": []}

    reference = tmp_path / "reference"
    hosc_then_eigendecompose(graph, kernels.edge_density(params.f_in),
                             kernels.edge_density(params.f_out),
                             truth if with_truth else None, algorithm, reference)
    for name in ("predicted.labels", "selection.csv"):
        assert (out / name).read_bytes() == (reference / name).read_bytes()


WAXMAN_CONFIG = """\
kernel_in.kind = waxman
kernel_in.q = 0.5
kernel_in.s = 1.0
kernel_out.kind = waxman
kernel_out.q = 0.25
kernel_out.s = 1.0
"""


@pytest.mark.parametrize("kernel_config,f_in,f_out", [
    (KERNEL_CONFIG, kernels.Indicator(0.2), kernels.Indicator(0.05)),
    (WAXMAN_CONFIG, kernels.Waxman(0.5, 1.0), kernels.Waxman(0.25, 1.0)),
], ids=["indicator", "waxman"])
def test_cluster_labels_do_not_depend_on_truth(tmp_path, monkeypatch, kernel_config,
                                               f_in, f_out):
    """run.labels only adds the accuracy profile: predicted.labels is the
    same file with and without it, and no run solves through eigendecompose."""
    params = model.SgbmParams(n=400, d=1, f_in=f_in, f_out=f_out, seed=3)
    graph, truth, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 3)
    model.write_labels(tmp_path / "truth.txt", truth)
    full_solves = []
    monkeypatch.setattr(spectral, "eigendecompose", full_solves.append)
    base = kernel_config + f"run.graph = {tmp_path / 'edges.txt'}\n"
    truth_key = f"run.labels = {tmp_path / 'truth.txt'}\n"
    for name, text in [("plain", base), ("truth", base + truth_key)]:
        cfg = write_config(tmp_path, text, f"{name}.cfg")
        assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / name),
                         "--quiet"]) == 0
    assert ((tmp_path / "plain" / "predicted.labels").read_bytes()
            == (tmp_path / "truth" / "predicted.labels").read_bytes())
    assert full_solves == []


@pytest.mark.parametrize("kernel_config,f_in,f_out", [
    (KERNEL_CONFIG, kernels.Indicator(0.2), kernels.Indicator(0.05)),
    (WAXMAN_CONFIG, kernels.Waxman(0.5, 1.0), kernels.Waxman(0.25, 1.0)),
], ids=["indicator", "waxman"])
def test_cluster_without_labels_selects_on_the_windows(tmp_path, monkeypatch, count_routines,
                                                        kernel_config, f_in, f_out):
    """Without run.labels nothing reads every vector: sgbm cluster selects on
    the Lanczos windows, then solves the eigenvalues alone once (dsyevd
    without vectors) to print them, and runs no full solve.  With run.labels
    the profile reads every vector, so one dsyevd with vectors comes first
    and the windows do not run."""
    params = model.SgbmParams(n=400, d=1, f_in=f_in, f_out=f_out, seed=3)
    graph, truth, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 3)
    model.write_labels(tmp_path / "truth.txt", truth)
    base = kernel_config + f"run.algorithm = hosc_li\nrun.graph = {tmp_path / 'edges.txt'}\n"
    truth_key = f"run.labels = {tmp_path / 'truth.txt'}\n"
    for name, text, want in [("plain", base, ([400], [], [400])),
                             ("truth", base + truth_key, ([], [400], []))]:
        with monkeypatch.context() as patch:
            calls = count_routines(patch, "dsyevd N", "dsyevd V", "window")
            cfg = write_config(tmp_path, text, f"{name}.cfg")
            assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / name),
                             "--quiet"]) == 0
        assert (calls["dsyevd N"], calls["dsyevd V"], calls["window"]) == want, name


def test_cluster_with_labels_selects_as_eigendecompose(tmp_path, monkeypatch, count_routines):
    """With run.labels, sgbm cluster runs exactly one dsyevd, with vectors,
    and no window, on A or shifted (dsytrf): its selection is
    eigendecompose's, bit for bit."""
    params = model.SgbmParams(n=400, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05), seed=3)
    graph, truth, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 3)
    model.write_labels(tmp_path / "truth.txt", truth)
    cfg = write_config(tmp_path, KERNEL_CONFIG + f"run.graph = {tmp_path / 'edges.txt'}\n"
                                                 f"run.labels = {tmp_path / 'truth.txt'}\n")
    reports = []
    cluster = spectral.cluster

    def recorded(*args, **kwargs):
        labels, report = cluster(*args, **kwargs)
        reports.append(report)
        return labels, report

    monkeypatch.setattr(spectral, "cluster", recorded)
    calls = count_routines(monkeypatch, "dsyevd N", "dsyevd V", "dsytrf", "window",
                           "shifted window")
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert calls == {"dsyevd N": [], "dsyevd V": [400], "dsytrf": [], "window": [],
                     "shifted window": []}
    lambda_star = spectral.ideal_eigenvalue(kernels.edge_density(params.f_in),
                                            kernels.edge_density(params.f_out), 400)
    want = spectral.select_eigenpair(spectral.eigendecompose(graph), lambda_star)
    [got] = reports
    assert (got.selected_index, got.lambda_selected, got.gap_to_next) == \
        (want.selected_index, want.lambda_selected, want.gap_to_next)
    assert np.array_equal(got.eigenvector, want.eigenvector)


def test_cluster_eigenvalues_do_not_depend_on_truth(tmp_path, monkeypatch, count_routines):
    """selection.csv's rank, eigenvalue and selected columns are the same bytes
    with and without run.labels.  Without it the eigenvalues printed are
    eigvalsh's (dsyevd without vectors), with it eigh's (dsyevd with vectors,
    which the profile reads).  The two differ by about 1e-15 of the largest
    eigenvalue, far below the 9 significant digits printed; they give the
    same strings here and on generate_cluster_gbm's graphs (n = 2000) for
    seeds 0-5.  Each run solves A once."""
    params = model.SgbmParams(n=400, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05), seed=3)
    graph, truth, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 3)
    model.write_labels(tmp_path / "truth.txt", truth)
    calls = count_routines(monkeypatch, "dsyevd N", "dsyevd V", "dsytrf")
    base = KERNEL_CONFIG + f"run.graph = {tmp_path / 'edges.txt'}\n"
    truth_key = f"run.labels = {tmp_path / 'truth.txt'}\n"
    columns = []
    for name, text in [("plain", base), ("truth", base + truth_key)]:
        cfg = write_config(tmp_path, text, f"{name}.cfg")
        assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / name),
                         "--quiet"]) == 0
        lines = (tmp_path / name / "selection.csv").read_text().splitlines()
        columns.append([(cells[0], cells[1], cells[3]) for cells in
                        (line.split(",") for line in lines)])
    assert len(columns[0]) == 401 and columns[0] == columns[1]
    assert calls == {"dsyevd N": [400], "dsyevd V": [400], "dsytrf": []}


@pytest.mark.parametrize("command,labels", [("cluster", True), ("cluster", False),
                                            ("spectrum", False)])
def test_out_of_memory_exits_4(tmp_path, capsys, monkeypatch, patch_lapack, command, labels):
    """When LAPACKE cannot allocate dsyevd's workspace, with vectors and without,
    sgbm cluster, with run.labels or without (where the windows cluster and
    only selection.csv's eigenvalues need dsyevd), and sgbm spectrum exit 4
    with the message and write no output file."""
    params = model.SgbmParams(n=200, d=1, f_in=kernels.Indicator(0.2),
                              f_out=kernels.Indicator(0.05), seed=5)
    graph, truth, _ = model.sample_graph(params)
    model.write_graph(tmp_path / "edges.txt", graph, 1, 5)
    model.write_labels(tmp_path / "truth.txt", truth)
    text = (KERNEL_CONFIG + f"run.graph = {tmp_path / 'edges.txt'}\n"
            if command == "cluster" else GBM_CONFIG)
    if labels:
        text += f"run.labels = {tmp_path / 'truth.txt'}\n"
    cfg = write_config(tmp_path, text)
    patch_lapack(monkeypatch, dsyevd=lambda *args: -1010)
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 4
    assert ("out of memory: LAPACKE_dsyevd could not allocate its workspace (info -1010)"
            in capsys.readouterr().err)
    assert not out.exists()


# --- spectrum ----------------------------------------------------------------

def test_spectrum_sbm_two_spikes(tmp_path, capsys):
    cfg = write_config(tmp_path, """\
model.n = 1000
kernel_in.kind = constant
kernel_in.p = 0.9
kernel_out.kind = constant
kernel_out.p = 0.1
run.K = 8
run.threshold = 0.1
run.window = 0.05
""")
    out = tmp_path / "out"
    code = cli.main(["spectrum", "--config", cfg, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "eigenvalues above threshold: 2" in stdout
    assert "outliers beyond window: 0" in stdout
    for name in ("eigenvalues.csv", "atoms.csv", "match.csv"):
        assert (out / name).exists()


@pytest.mark.parametrize("line,key", [
    ("run.K = 0", "K"),
    ("run.threshold = 0", "threshold"),
    ("run.threshold = -1", "threshold"),
    ("run.threshold = nan", "threshold"),
    ("run.threshold = inf", "threshold"),
    ("run.window = nan", "window"),
    ("run.window = inf", "window"),
    ("run.window = -1", "window"),
])
def test_spectrum_rejects_bad_run_key_before_sampling(tmp_path, capsys, monkeypatch, line, key):
    sampled = []
    monkeypatch.setattr(harness, "sample_graph", lambda params: sampled.append(params))
    cfg = write_config(tmp_path, GBM_CONFIG + line + "\n")
    out = tmp_path / "o"
    assert cli.main(["spectrum", "--config", cfg, "--out", str(out)]) == 2
    assert f"config error: {key} must be" in capsys.readouterr().err
    assert sampled == [] and not out.exists()


# --- sweep -------------------------------------------------------------------

SWEEP_CONFIG = """\
run.preset = fig3
run.n_list = 150,200
run.r_in = 0.2
run.r_out = 0.05
run.seeds = 0:3
run.workers = 2
"""


def test_sweep_writes_tables_and_reruns_identically(tmp_path):
    cfg = write_config(tmp_path, SWEEP_CONFIG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out1), "--quiet"]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
    for name in ("results.csv", "timings.csv", "meta.txt"):
        assert (out1 / name).exists()
    assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    lines = (out1 / "results.csv").read_text().splitlines()
    assert len(lines) == 1 + 2 * 3 * 2  # grid x seeds x algorithms
    meta = (out1 / "meta.txt").read_text()
    assert "  run.preset = fig3" in meta
    assert "numpy:" in meta


def test_sweep_rejects_bad_preset(tmp_path):
    cfg = write_config(tmp_path, "run.preset = fig9\n")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_rejects_empty_seeds(tmp_path):
    cfg = write_config(tmp_path, "run.preset = fig3\nrun.seeds =\n")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_rejects_oversized_seeds(tmp_path):
    cfg = write_config(tmp_path, "run.preset = fig3\nrun.seeds = 4294967296\n")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_rejects_bad_workers(tmp_path):
    cfg = write_config(tmp_path, "run.preset = fig3\nrun.workers = 0\n")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_sweep_fig4_propagates_radius_error(tmp_path):
    cfg = write_config(tmp_path, """\
run.preset = fig4
run.r_in_grid = 0.05,0.1
run.r_out = 0.06
""")
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("text", [
    "run.preset = fig3\nrun.r_in = 0.7\n",             # radius outside (0, 1/2)
    "run.preset = fig3\nrun.n_list =\n",                # empty grid
    "run.preset = fig3\nrun.grid = 0.1,0.2\n",          # a waxman-only key
    "run.preset = waxman\nrun.fixed_out = nan\n",       # non-finite kernel parameter
    "run.preset = fig4\nrun.n_list = 200\n",            # a fig3 / waxman key
], ids=["fig3-radius", "fig3-empty-n-list", "fig3-foreign-key", "waxman-nan", "fig4-foreign-key"])
def test_sweep_rejects_bad_preset_argument(tmp_path, capsys, text):
    cfg = write_config(tmp_path, text)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


# --- keys each command reads ----------------------------------------------------

COMMAND_CONFIGS = {
    "generate": GBM_CONFIG,
    "cluster": GBM_CONFIG,
    "spectrum": GBM_CONFIG,
    "sweep": "run.preset = fig3\nrun.n_list = 150\nrun.seeds = 0:1\n",
    "validate": "",
}


@pytest.mark.parametrize("command,line", [
    ("generate", "run.out = elsewhere"),
    ("generate", "run.algorithm = hosc"),
    ("cluster", "run.K = 8"),
    ("cluster", "run.workers = 2"),
    ("spectrum", "run.workers = 2"),
    ("spectrum", "run.graph = edges.txt"),
    ("sweep", "run.algorithm = motif_baseline"),
    ("sweep", "model.n = 200"),
    ("sweep", "kernel_in.kind = indicator"),
    ("validate", "run.seed = 1"),
    ("validate", "model.n = 200"),
])
def test_command_rejects_key_it_does_not_read(tmp_path, capsys, command, line):
    cfg = write_config(tmp_path, COMMAND_CONFIGS[command] + line + "\n")
    out = tmp_path / "o"
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"sgbm {command} does not read {line.split(' =')[0]}" in err
    assert not out.exists()


def test_cluster_rejects_labels_without_graph(tmp_path, capsys):
    cfg = write_config(tmp_path, GBM_CONFIG + f"run.labels = {tmp_path / 'nonexistent'}\n")
    out = tmp_path / "o"
    assert cli.main(["cluster", "--config", cfg, "--out", str(out)]) == 2
    assert "run.labels needs run.graph" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [0, 1])
def test_cluster_rejects_graph_file_below_two_nodes(tmp_path, capsys, n):
    (tmp_path / "edges.txt").write_text(f"{n} 1 0\n")
    cfg = write_config(tmp_path, KERNEL_CONFIG + f"run.graph = {tmp_path / 'edges.txt'}\n")
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "config error: bad graph file:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# truth\n" + "1\n2\n" * 2, "1\n2\n257\n1\n"],
                         ids=["empty", "comment", "beyond_int8"])
def test_cluster_rejects_bad_labels_file(tmp_path, capsys, monkeypatch, count_routines, text):
    """A labels file read_labels rejects exits 2 naming the file, before any solve."""
    graph = model.sample_graph(model.SgbmParams(n=4, d=1, f_in=kernels.Indicator(0.2),
                                                f_out=kernels.Indicator(0.05), seed=0))[0]
    model.write_graph(tmp_path / "edges.txt", graph, 1, 0)
    (tmp_path / "labels.txt").write_text(text)
    cfg = write_config(tmp_path, KERNEL_CONFIG + f"run.graph = {tmp_path / 'edges.txt'}\n"
                                                 f"run.labels = {tmp_path / 'labels.txt'}\n")
    calls = count_routines(monkeypatch, "dsyevd", "dsytrf", "window", "shifted window")
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert f"config error: bad labels file: {tmp_path / 'labels.txt'}:" in capsys.readouterr().err
    assert calls == {"dsyevd": [], "dsytrf": [], "window": [], "shifted window": []}


def test_cluster_rejects_graph_file_too_large_for_memory(tmp_path, capsys):
    """n = 10^9 asks for a 10^18-byte adjacency, which is refused at once."""
    (tmp_path / "edges.txt").write_text("1000000000 1 0\n")
    cfg = write_config(tmp_path, KERNEL_CONFIG + f"run.graph = {tmp_path / 'edges.txt'}\n")
    assert cli.main(["cluster", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "config error: bad graph file:" in err and "n = 1000000000" in err


def test_benchmark_shaped_inputs_still_run(tmp_path):
    """The keys of perfbench's workloads, at a smaller n: each is one its command reads."""
    data = tmp_path / "data"
    generate = write_config(tmp_path, GBM_CONFIG + "run.seed = 3\n", "generate.cfg")
    kernel_blocks = GBM_CONFIG[GBM_CONFIG.index("kernel_in"):]
    cluster = write_config(tmp_path, kernel_blocks + f"run.graph = {data / 'edges.txt'}\n"
                           f"run.labels = {data / 'labels.txt'}\nrun.algorithm = hosc_li\n",
                           "cluster.cfg")
    sweep = write_config(tmp_path, "run.preset = waxman\nrun.n_list = 150\nrun.seeds = 0:1\n"
                                   "run.workers = 2\nrun.seed = 3\n", "sweep.cfg")
    for command, cfg, out in (("generate", generate, data), ("cluster", cluster, tmp_path / "c"),
                              ("sweep", sweep, tmp_path / "s")):
        assert cli.main([command, "--config", cfg, "--out", str(out), "--quiet"]) == 0, command
    rows, _ = harness.fig3_sweep(n_list=(150,), r_in=0.2, r_out=0.05, seeds=range(1),
                                 algorithms=harness.ALGORITHMS, master_seed=3)
    assert len(rows) == len(harness.ALGORITHMS)


# --- validate ----------------------------------------------------------------

def test_validate_passes(capsys):
    code = cli.main(["validate"])
    stdout = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in stdout
    assert stdout.count("PASS") == 5
    assert "FAIL" not in stdout
