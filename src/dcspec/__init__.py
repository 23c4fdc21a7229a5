"""dcspec: spectra and pseudospectra of doubly characteristic quadratic
Weyl operators, with the phase-space machinery that controls them.

Each module's ``__all__`` is re-exported here.
"""

from importlib import resources as _resources

from .errors import *
from .symplectic import *
from .singular import *
from .lattice import *
from .weights import *
from .fbi import *
from .weyl import *

__version__ = "0.1.0"


def bundled_symbol_path(name):
    """Filesystem path of a bundled symbol file, e.g. ``"kfp.json"``."""
    ref = _resources.files("dcspec") / "symbols" / name
    if not ref.is_file():
        raise FileNotFoundError(f"no bundled symbol named {name!r}")
    return str(ref)
