"""Soft geometric block models on the torus: sampling, spectral clustering,
and numerical checks of the limiting spectrum."""

from .kernels import (
    Constant,
    Indicator,
    Waxman,
    coefficients,
    convolution_at_zero,
    edge_density,
    eval_kernel,
    fourier_coeff,
    fourier_coeff_grid,
    kernel_from_config,
    kernel_to_config,
)
from .model import (
    DegreeStats,
    Graph,
    SgbmParams,
    degree_stats,
    pair_uniform,
    read_graph,
    read_labels,
    sample_graph,
    sample_labelling,
    sample_positions,
    torus_displacement,
    torus_norm,
    write_graph,
    write_labels,
    write_positions,
)
from .spectral import (
    DegenerateModelError,
    EigendecompositionError,
    SelectionReport,
    Spectrum,
    accuracy,
    cluster,
    eigendecompose,
    hosc,
    ideal_eigenvalue,
    local_improvement,
    loss,
    per_eigenvector_accuracy,
    select_eigenpair,
    sign_partition,
)
from .theory import (
    Atom,
    IsolationReport,
    LimitingMeasure,
    RayleighReport,
    SpectrumMatch,
    empirical_moment,
    isolation_check,
    limiting_atoms,
    limiting_moment,
    rayleigh_bound,
    spectrum_match,
    trace_lipschitz_check,
)
from .harness import (
    GridPoint,
    ResultRow,
    SweepConfig,
    aggregate,
    cell_seed,
    fig3_sweep,
    fig4_sweep,
    motif_baseline,
    run_sweep,
    spectrum_experiment,
    waxman_sweep,
    write_results,
    write_timings,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
