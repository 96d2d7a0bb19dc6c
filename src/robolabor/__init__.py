"""robolabor: deterministic scenario engine for robotics-driven labor substitution.

A small, pure-Python library built around a capital-augmenting Cobb-Douglas
production function with robotics capital as a third factor. It simulates
adoption scenarios for small open economies with large expatriate
workforces, disaggregates displacement by sector, quantifies remittance and
job-creation effects, calibrates unstated inputs from published outcomes,
and runs one-at-a-time sensitivity analyses. Ships with a Qatar-calibrated
default dataset.

Same inputs, same outputs, bit for bit: no randomness and no process-global
state. The one reuse, which never changes a result, is a one-slot memo on a
config's compiled sector table: ``run_scenario`` copies the table's last
sector outcome for a run with the same terminal rate and baseline.
"""

from . import calibrate, config, core, engine, errors, report, sectors, sensitivity
from .calibrate import *
from .config import *
from .core import *
from .engine import *
from .errors import *
from .report import *
from .sectors import *
from .sensitivity import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__, *sectors.__all__, *engine.__all__, *calibrate.__all__,
    *sensitivity.__all__, *config.__all__, *report.__all__, *errors.__all__,
]
