"""Levi forms, q-holomorphicity residuals, discrete hulls, peak extensions.

The package is organized around one expression DSL (`expr`) whose two-jets
feed everything else: q-holomorphicity residuals (`forms`), signature-based
convexity classification (`levi`), discrete hull experiments (`hull`), and
the peak-extension pipeline on model domains (`peak`).  `cli` wraps the lot
behind deterministic, config-driven subcommands.
"""

from . import expr, forms, levi, hull, peak
from .expr import *  # noqa: F403
from .forms import *  # noqa: F403
from .levi import *  # noqa: F403
from .hull import *  # noqa: F403
from .peak import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for mod in (expr, forms, levi, hull, peak) for name in mod.__all__]
__all__.append("__version__")
