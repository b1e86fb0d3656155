"""Achievable-rate modeling and element-count optimization for
omni-DRIS-assisted indoor visible-light links.

The library models the NLoS light-source -> panel-element -> user channel,
collapses the system into the reduced rate form
``f(n) = xi (n - theta) log2(alpha/(n^2 psi) + 1)``, locates the
rate-maximizing element count (stationarity cubic, exact stationarity
root, universal proportional constant) and applies the power-of-two
hardware selection rule.  Scenario files and bundled presets drive sweeps and the
reference-table reproduction reports; ``omnidris`` is the CLI entry point.

The package exports the names in each library module's ``__all__``, and
``omnidris.optimize`` is the module: call ``omnidris.optimize.optimize``.
"""
import sys as _sys

from .channel import *
from .optimize import *
from .rate import *
from .reports import *
from .scenario import *

optimize = _sys.modules[f"{__name__}.optimize"]  # the star import bound the function

__version__ = "0.1.0"
