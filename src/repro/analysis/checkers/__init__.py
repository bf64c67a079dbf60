"""The built-in checker wave; importing this package registers them."""

from repro.analysis.checkers import determinism  # noqa: F401
from repro.analysis.checkers import perf  # noqa: F401
from repro.analysis.checkers import protocol  # noqa: F401
from repro.analysis.checkers import rng  # noqa: F401
from repro.analysis.checkers import simgen  # noqa: F401
