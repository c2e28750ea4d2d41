"""Preference graphs, sink attractors and replicator dynamics for two-player
zero-sum games."""

from .content import (
    Content,
    content_of,
    content_to_dict,
    maximal_subgames,
)
from .dynamics import (
    EmbeddingReport,
    IntegrationError,
    IntegratorConfig,
    Trajectory,
    check_embedding,
    integrate,
    integrate_batch,
    lyapunov_rates,
    mass_monotone,
    write_trajectory_csv,
    write_trajectory_svg,
)
from .equilibrium import (
    NashCertificate,
    NoEquilibriumError,
    PreferenceNashReport,
    certificate_to_dict,
    solve_nash,
)
from .game import (
    Game,
    GameFormatError,
    MixedProfile,
    game_to_dict,
    game_to_json,
    load_game,
    make_game,
    mixed,
    parse_game,
    uniform_profile,
)
from .prefgraph import (
    PreferenceGraph,
    SccPartition,
    SinkUniquenessError,
    build_graph,
    scc,
    sink_component,
    to_dot,
)
from .sampling import game_corpus, random_game, random_mixed_profile
from .symmetrise import (
    WeightIdentityReport,
    check_weight_identity,
    symmetrise,
)

__version__ = "0.1.0"
