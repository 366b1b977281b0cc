"""Sweep automation: declarative grids, a parallel process-pool executor,
and a code-fingerprinted on-disk result cache.

Every experiment driver submits its slice of the paper's evaluation grid
here instead of hand-rolling nested ``simulate_cluster`` loops; overlapping
drivers (and re-runs) hit the cache, and ``--jobs N`` fans independent
cells out across cores with bitwise-identical results.
"""

from .cache import CacheStats, ResultCache, cache_key
from .fingerprint import code_fingerprint, module_fingerprint
from .runner import Speedup, SweepRunner
from .serialize import result_from_dict, result_to_dict
from .spec import FnTask, GridSpec, SimCell

__all__ = [
    "CacheStats",
    "ResultCache",
    "cache_key",
    "code_fingerprint",
    "module_fingerprint",
    "Speedup",
    "SweepRunner",
    "result_from_dict",
    "result_to_dict",
    "FnTask",
    "GridSpec",
    "SimCell",
]
