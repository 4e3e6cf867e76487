"""Dualheap selection: address-pivoted partitioning built from two opposing
bottom-up heaps, with instrumented quickselect baselines and a benchmark
harness for comparing them.

The package root exports the selection algorithm. The harness is imported
from the module that defines it: ``dualheap.baselines`` (the quickselect
baselines and the oracle), ``dualheap.bench`` (the input generators, the
bench runner and its CSV records) and ``dualheap.rng`` (the seeded stream).
"""

from .core import SentinelArray, build_max_heap, build_min_heap, split_indices
from .errors import InternalInvariantError
from .metrics import Metrics, PhaseTally
from .select import (
    PRESPLITS,
    SelectOptions,
    SelectOutcome,
    construct_dualheap,
    dh_select,
    dh_sort,
    prepare_buffer,
    verify_partition,
)
from .swaps import STRATEGIES, run_swapping_phase, swap_step_budget
