"""Exact mirabolic coadjoint-orbit classification for GL(n) over R and C.

The package classifies mirabolic coadjoint orbits into (depth, head-orbit)
normal forms with exact rational arithmetic, computes moment-map images of
GL coadjoint orbits both by closed form and by an independent
conjugate-project-classify oracle, attaches symbolic unitary labels on both
sides, and machine-checks that restriction lands on the attachment of the
unique dense image orbit.

Each module's __all__ is the one list of its public names; the package
re-exports them all, so a stale entry fails at import.  corpus and cli are
not re-exported.
"""
from .exact_linalg import *
from .partitions import *
from .orbit_model import *
from .classify import *
from .enumeration import *
from .moment import *
from .rep_theory import *

__version__ = "0.1.0"
