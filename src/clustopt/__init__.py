"""Clustering coefficient versus decentralized optimization convergence.

Simulation toolkit for scale-free and clustered scale-free networks:
generation, clustering metrics, Laplacian spectra, gradient-tracking
dynamics, degree-preserving rewiring, and reproducible Monte-Carlo
campaigns.
"""

from .costs import (
    MlLossModel,
    OptimumCertificate,
    QuarticModel,
    aggregate_optimum,
    sample_mlloss,
    sample_quartic,
)
from .dynamics import NodeState, SimConfig, TrialTrace, euler_step, initialize, run, \
    stability_max_step
from .generators import (
    BaParams,
    HkParams,
    RewireParams,
    RewireReport,
    generate_ba,
    generate_hk,
    rewire_increase_clustering,
)
from .graphs import (
    ClusteringReport,
    DegreeStats,
    Graph,
    assign_random_weights,
    build_graph,
    degree_histogram,
    degree_stats,
    global_clustering,
    is_connected,
    laplacian_sparse,
    local_clustering,
    powerlaw_tail_slope,
    predicted_c_ba,
    predicted_c_hk,
)
from .montecarlo import (
    CostSpec,
    McConfig,
    McSummary,
    TopologySpec,
    compare_topologies,
    run_mc,
    scatter_report,
    trial_seed,
)
from .spectral import (
    JacobianSpec,
    SpectralReport,
    build_jacobian,
    convergence_rate,
    eig_general,
    lambda2_laplacian,
    spectral_report,
)

__version__ = "0.1.0"
