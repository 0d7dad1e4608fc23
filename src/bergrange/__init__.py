"""Truncations of Bergman-space operators and their numerical ranges."""

from bergrange.checks import *
from bergrange.core import *
from bergrange.numrange import *
from bergrange.operators import *

__version__ = "0.1.0"
