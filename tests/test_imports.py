"""A fresh `import sgbm`, every CLI command, every sweep preset, and a
sweep with every algorithm, motif_baseline included, load no scipy
module at all.

The eigensolvers are the LAPACK numpy loads, called through numpy or
ctypes, and motif_baseline finds its components with numpy, so sgbm
runs on numpy alone.  Each check runs in its own interpreter, since this
test session may have loaded scipy already.
"""

import os
import subprocess
import sys

import pytest

import sgbm
from sgbm import cli

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(sgbm.__file__)))

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

SCIPY_LOADED = 'any(m.split(".")[0] == "scipy" for m in sys.modules)'


def run_fresh(code, cwd):
    """Run code in a new interpreter that imports the sgbm this session tests."""
    pythonpath = os.pathsep.join(p for p in (PKG_ROOT, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=pythonpath),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "gbm.cfg").write_text(GBM_CONFIG)
    assert cli.main(["generate", "--config", str(tmp_path / "gbm.cfg"),
                     "--out", str(tmp_path / "gen"), "--quiet"]) == 0
    (tmp_path / "cluster.cfg").write_text(
        KERNEL_CONFIG + "run.graph = gen/edges.txt\nrun.labels = gen/labels.txt\n"
                        "run.algorithm = hosc_li\n")
    (tmp_path / "cluster_unlabelled.cfg").write_text(KERNEL_CONFIG + "run.graph = gen/edges.txt\n")
    (tmp_path / "sweep.cfg").write_text(
        "run.preset = waxman\nrun.n_list = 200\nrun.seeds = 0:1\n")
    (tmp_path / "sweep_fig3.cfg").write_text(
        "run.preset = fig3\nrun.n_list = 200\nrun.seeds = 0:1\nrun.workers = 2\n")
    (tmp_path / "sweep_fig4.cfg").write_text(
        "run.preset = fig4\nrun.n = 200\nrun.r_in_grid = 0.1\nrun.seeds = 0:1\n")
    return tmp_path


def cli_run(command, config=None):
    argv = [command, "--quiet"] + (["--config", config] if config else [])
    return f"from sgbm import cli\nassert cli.main({argv!r}) == 0\n"


@pytest.mark.parametrize("code", [
    "import sgbm\n",
    "import sgbm.cli\n",
    cli_run("generate", "gbm.cfg"),
    cli_run("cluster", "cluster.cfg"),
    cli_run("cluster", "cluster_unlabelled.cfg"),
    cli_run("spectrum", "gbm.cfg"),
    cli_run("sweep", "sweep.cfg"),
    cli_run("sweep", "sweep_fig3.cfg"),
    cli_run("sweep", "sweep_fig4.cfg"),
    cli_run("validate"),
    "from sgbm import harness\n"
    "harness.fig3_sweep(n_list=(200,), seeds=range(1), algorithms=('hosc', 'hosc_li', 'fiedler'))\n",
    "from sgbm import harness\n"
    "rows, _ = harness.fig3_sweep(n_list=(200,), seeds=range(1), algorithms=harness.ALGORITHMS)\n"
    "motif = [row for row in rows if row.algorithm == 'motif_baseline']\n"
    "assert len(motif) == 1 and motif[0].accuracy is not None, motif\n"
    "assert not motif[0].note.startswith('error:'), motif[0].note\n",
], ids=["import", "import_cli", "generate", "cluster", "cluster_unlabelled", "spectrum",
        "sweep", "sweep_fig3", "sweep_fig4", "validate", "fig3_sweep", "fig3_sweep_motif"])
def test_no_scipy_sparse_after(code, workdir):
    run_fresh(code + f"assert not {SCIPY_LOADED}\n", workdir)


def test_import_opens_no_lapack(tmp_path):
    """sgbm._openblas opens numpy's OpenBLAS, and imports numpy.ctypeslib to
    bind it, on first use, not on import."""
    run_fresh("import sgbm\nfrom sgbm import _openblas\n"
              "assert _openblas._library.cache_info().currsize == 0\n"
              "assert 'numpy.ctypeslib' not in sys.modules\n", tmp_path)


# every name `import sgbm` gave before the package took its names from the
# modules' __all__
PACKAGE_NAMES = {
    "Atom", "Constant", "DegenerateModelError", "DegreeStats", "EigendecompositionError",
    "Graph", "GridPoint", "Indicator", "IsolationReport", "LimitingMeasure", "RayleighReport",
    "ResultRow", "SelectionReport", "SgbmParams", "Spectrum", "SpectrumMatch", "SweepConfig",
    "Waxman", "accuracy", "aggregate", "cell_seed", "cluster", "coefficients",
    "convolution_at_zero", "degree_stats", "edge_density", "eigendecompose",
    "empirical_moment", "fig3_sweep", "fig4_sweep", "fourier_coeff", "fourier_coeff_grid",
    "harness", "hosc", "ideal_eigenvalue", "isolation_check", "kernel_from_config",
    "kernel_to_config", "kernels", "limiting_atoms", "limiting_moment", "local_improvement",
    "loss", "model", "motif_baseline", "pair_uniform", "per_eigenvector_accuracy",
    "rayleigh_bound", "read_graph", "read_labels", "run_sweep", "sample_graph",
    "sample_labelling", "sample_positions", "select_eigenpair", "sign_partition", "spectral",
    "spectrum_experiment", "spectrum_match", "theory", "trace_lipschitz_check",
    "waxman_sweep", "write_graph", "write_labels", "write_positions", "write_results",
    "write_timings",
}


def test_package_exports_every_public_name():
    """sgbm.__all__ holds each module's __all__, bound to the module's own
    objects, and every name the package exported before."""
    from sgbm import harness, kernels, model, spectral, theory

    for module in (kernels, model, spectral, theory, harness):
        assert set(module.__all__) <= set(sgbm.__all__), module.__name__
        for name in module.__all__:
            assert getattr(sgbm, name) is getattr(module, name), name
    assert PACKAGE_NAMES <= set(sgbm.__all__)
