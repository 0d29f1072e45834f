"""Capacity upper bounds for the symmetric primitive relay channel.

Scalar entropy-gap bound functions and the input checks of every layer live
in `scalar_bounds`, the Gaussian and discrete capacity bounds in
`gaussian_relay` and `dmc_relay`, and the numerical verification machinery
(semigroups, reverse hypercontractivity margins, exact entropy oracles) in
`rhc_verify`.  `cli` exposes everything as the `relay-bounds` command.
Import each name from its module; the package root holds only the error
types.
"""

from .errors import BoundsError, DimensionError, DomainError

__version__ = "0.1.0"
