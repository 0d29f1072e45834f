"""Capacity upper bounds for the symmetric primitive relay channel.

Scalar entropy-gap bound functions live in `scalar_bounds`, the Gaussian and
discrete capacity bounds in `gaussian_relay` and `dmc_relay`, and the
numerical verification machinery (semigroups, reverse hypercontractivity
margins, exact entropy oracles) in `rhc_verify`.  `cli` exposes everything as
the `relay-bounds` command.
"""

from .dmc_relay import (
    DiscreteChannel,
    DmcBoundReport,
    InputDistribution,
    alpha_of_channel,
    capacity_ub_cor2,
    cutset_dmc,
    i_infinity,
)
from .errors import BoundsError, DimensionError, DomainError
from .gaussian_relay import (
    CurveTable,
    GaussianBoundReport,
    GaussianRelayParams,
    capacity_ub_lemma2,
    capacity_ub_lemma3,
    capacity_ub_relaxed,
    cutset_bound,
    emit_fig1_curves,
    emit_fig2_curves,
    report,
)
from .rhc_verify import (
    QuadratureRule,
    RelayInstance,
    SemiSimpleSemigroup,
    apply_semisimple,
    brute_force_entropy_gap,
    check_borell_exponential,
    check_mossel,
    check_ou_q0,
    gaussian_quantizer_gap,
    lp_norm,
    ou_apply,
)
from .scalar_bounds import (
    bdd_gap_closed,
    bdd_gap_inverse,
    gauss_gap_closed,
    gauss_gap_inverse,
    lemma3_gap,
    lemma3_h2max,
    relaxed_gap_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "BoundsError",
    "CurveTable",
    "DimensionError",
    "DiscreteChannel",
    "DmcBoundReport",
    "DomainError",
    "GaussianBoundReport",
    "GaussianRelayParams",
    "InputDistribution",
    "QuadratureRule",
    "RelayInstance",
    "SemiSimpleSemigroup",
    "alpha_of_channel",
    "apply_semisimple",
    "bdd_gap_closed",
    "bdd_gap_inverse",
    "brute_force_entropy_gap",
    "capacity_ub_cor2",
    "capacity_ub_lemma2",
    "capacity_ub_lemma3",
    "capacity_ub_relaxed",
    "check_borell_exponential",
    "check_mossel",
    "check_ou_q0",
    "cutset_bound",
    "cutset_dmc",
    "emit_fig1_curves",
    "emit_fig2_curves",
    "gauss_gap_closed",
    "gauss_gap_inverse",
    "gaussian_quantizer_gap",
    "i_infinity",
    "lemma3_gap",
    "lemma3_h2max",
    "lp_norm",
    "ou_apply",
    "relaxed_gap_inverse",
    "report",
]
