"""Spectral analysis of a finite quantum system coupled to two reservoirs
through rank-two bonds: closed-form resolvents verified against a
discretization oracle, boundary-value classification on energy grids,
spectral averaging over bond strengths, and pointwise certificates for the
absence of singular continuous spectrum.

The submodules below are registered lazily: each sits in ``sys.modules``
(and on this package) from the start, but is compiled and executed only
when one of its attributes is first read, so a CLI command runs only the
modules it uses.  ``errors`` and ``cli`` load as usual.
"""

import importlib.util
import sys

_LAZY = ("averaging", "blackbox", "boundary", "certify", "config", "emit",
         "measures", "resolvent")

for _name in _LAZY:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_name] = _module
del _name, _spec, _module

# the public names, each read from its module on first use
_EXPORTS = {
    "BlackBoxModel": "blackbox",
    "SystemBlock": "blackbox",
    "classify_energy": "boundary",
    "certify_no_sc": "certify",
    "CouplingParams": "config",
    "SpectralMeasure": "measures",
    "discretize": "resolvent",
    "green": "resolvent",
    "green_oracle": "resolvent",
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module = globals()[_EXPORTS[name]]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
