"""Merging of conflicting terminological knowledge bases via RCC-5 networks.

Pipeline: parse strict-normal-form ontologies, translate their asserted
subsumption/disjointness axioms into RCC-5 constraint networks, merge the
networks by distance-guided relaxation until consistent, pick the
scenario that raises the fewest conflicts with the sources' closed
ABoxes, and translate it back into an ontology.  The package re-exports
the ``__all__`` of each library module; the CLI stays in `ontomerge.cli`.
"""

from .distance import *
from .merging import *
from .ontology import *
from .rcc5 import *
from .selection import *
from .translate import *

__version__ = "0.1.0"
