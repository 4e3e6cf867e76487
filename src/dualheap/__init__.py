"""Dualheap selection: address-pivoted partitioning built from two opposing
bottom-up heaps, with instrumented quickselect baselines and a benchmark
harness for comparing them.

``import dualheap`` loads only the selection algorithm. The harness names
(the baselines, the bench runner and its CSV records, the seeded stream)
load from their submodules on first use."""

import importlib

from .core import Element, SentinelArray, build_max_heap, build_min_heap, split_indices
from .errors import InternalInvariantError, OracleMismatchError
from .metrics import Metrics, PhaseTally
from .select import (
    PRESPLITS,
    SelectOptions,
    SelectOutcome,
    construct_dualheap,
    dh_select,
    dh_select_copy,
    dh_sort,
    prepare_buffer,
    verify_partition,
)
from .swaps import STRATEGIES, run_swapping_phase, swap_step_budget

# Name -> the submodule that defines it. Compiling these submodules takes
# about half of a fresh import, and the selection algorithm uses none of them.
_LAZY = {
    **dict.fromkeys(
        (
            "PIVOT_RULES",
            "hoare_partition",
            "median_of_medians",
            "oracle_select",
            "quickselect",
        ),
        "baselines",
    ),
    **dict.fromkeys(
        (
            "ALGOS",
            "AlgoSpec",
            "BenchConfig",
            "CSV_FIELDS",
            "CSV_HEADER",
            "DEFAULT_SIZES",
            "DISTS",
            "ExperimentRecord",
            "WorstCaseReport",
            "emit_csv",
            "emit_worstcase_csv",
            "fit_growth",
            "generate",
            "median_index",
            "parse_csv",
            "records_to_csv",
            "run_benchmark",
            "worst_case_search_exhaustive",
            "worst_case_search_random",
        ),
        "bench",
    ),
    "SplitMix64": "rng",
}


def __getattr__(name):
    # Resolved on every access and never stored here: a stored copy would
    # outlive a later patch of the submodule's attribute (a tracer's wrapper,
    # its removal, a test's monkeypatch).
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
