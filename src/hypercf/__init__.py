"""Exact continued-fraction toolkit for hyperquadratic power series over
F_p((1/T)): field and polynomial arithmetic, precision-tracked Laurent
series, continuant machinery, a partial-quotient extraction engine, and
the block-pattern builders with their closed forms and irrationality
measure.

The package exports every name its modules list in their `__all__`, plus
`__version__`; each module's list is the one place a public name is kept.
"""
from . import algebra, cf, construction, expansion, series

__version__ = "0.1.0"

__all__ = ["__version__"]
for _module in (algebra, series, cf, expansion, construction):
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
    __all__ += _module.__all__
del _module
