"""Dualheap selection: address-pivoted partitioning built from two opposing
bottom-up heaps, with instrumented quickselect baselines and a benchmark
harness for comparing them."""

from .baselines import (
    PIVOT_RULES,
    PivotRule,
    hoare_partition,
    median_of_medians,
    oracle_select,
    quickselect,
    quickselect_mom,
)
from .bench import (
    ALGOS,
    AlgoSpec,
    BenchConfig,
    CSV_FIELDS,
    CSV_HEADER,
    DEFAULT_SIZES,
    DISTS,
    ExperimentRecord,
    InputSpec,
    WorstCaseReport,
    emit_csv,
    emit_worstcase_csv,
    fit_growth,
    generate,
    median_index,
    parse_csv,
    records_to_csv,
    run_benchmark,
    worst_case_search_exhaustive,
    worst_case_search_random,
)
from .core import (
    DualHeap,
    Element,
    LargeHeapView,
    SentinelArray,
    SmallHeapView,
    build_max_heap,
    build_min_heap,
    check_heap_condition,
    sift_down_max,
    sift_down_min,
    split_indices,
)
from .errors import InternalInvariantError, OracleMismatchError
from .metrics import Metrics, PhaseTally
from .rng import SplitMix64
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
