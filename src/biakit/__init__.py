"""Blind interference alignment schemes for the K-user interference channel
with staggered two-mode antenna switching: construction, exact and Monte
Carlo verification, DoF accounting, and sum-rate simulation."""

from .channel import (
    ChannelSet,
    SymbolBlock,
    channels_from_json,
    channels_to_json,
    draw_channels,
    draw_symbols,
    effective_channel,
    receive,
    stream_seed,
    transmit,
)
from .designspace import make_pattern_matrix, row_vocabulary
from .dof import DofReport, achieved, bound, sweep
from .errors import (
    BiaError,
    ConstructionFailedError,
    DegenerateSchemeError,
    UnverifiableDrawError,
)
from .exactrank import gaussian_rank, integer_rank
from .scheme import (
    BeamSet,
    PatternMatrix,
    Scheme,
    SchemeConfig,
    assign_beamformers,
    build_scheme,
    certify_product_rank,
    certify_receivers,
    default_pair_dims,
    make_config,
    product_matrix,
    scheme_from_json,
    scheme_to_json,
    star_pattern_matrix,
)
from .sim import (
    SimConfig,
    SimResult,
    estimate_dof,
    receiver_rate,
    tdma_sum_rate,
    zf_decode,
)
from .verify import (
    CountingReport,
    ReceiverCheck,
    ReceiverDecomposition,
    VerificationReport,
    check_counting,
    decompose_receiver,
    rank_of,
    run_verification,
    verify_decodability,
    verify_decodability_exact,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
