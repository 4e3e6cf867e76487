import math

import pytest

import dualheap.bench as bench
from dualheap import (
    AlgoSpec,
    BenchConfig,
    CSV_HEADER,
    ExperimentRecord,
    InputSpec,
    Metrics,
    OracleMismatchError,
    SelectOptions,
    SentinelArray,
    SplitMix64,
    dh_select,
    emit_csv,
    fit_growth,
    generate,
    parse_csv,
    records_to_csv,
    run_benchmark,
    worst_case_search_exhaustive,
    worst_case_search_random,
)


# --- PRNG --------------------------------------------------------------------


def test_splitmix_reference_streams():
    # frozen from the algorithm definition; the seed-1234567 triple matches
    # the widely published splitmix64 test vector
    assert [SplitMix64(0).next_u64() for _ in range(1)] == [16294208416658607535]
    stream = SplitMix64(0)
    assert [stream.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    stream = SplitMix64(1234567)
    assert [stream.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix_longhand_first_step():
    mask = (1 << 64) - 1
    state = (981 + 0x9E3779B97F4A7C15) & mask
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    assert SplitMix64(981).next_u64() == z ^ (z >> 31)


# --- generators --------------------------------------------------------------


def test_generate_sorted():
    assert generate(InputSpec(5, "sorted")) == [1, 2, 3, 4, 5]


def test_generate_reverse():
    assert generate(InputSpec(5, "reverse")) == [5, 4, 3, 2, 1]


def test_generate_organpipe():
    assert generate(InputSpec(5, "organpipe")) == [1, 2, 3, 2, 1]
    assert generate(InputSpec(6, "organpipe")) == [1, 2, 3, 3, 2, 1]


def test_generate_allequal():
    assert generate(InputSpec(4, "allequal")) == [1, 1, 1, 1]


def test_generate_fewvalues():
    assert generate(InputSpec(6, "fewvalues")) == [1, 2, 3, 4, 1, 2]


def test_generate_random_is_seed_determined_permutation():
    a = generate(InputSpec(8, "random", seed=42))
    b = generate(InputSpec(8, "random", seed=42))
    assert a == b == [4, 2, 7, 3, 5, 1, 8, 6]  # frozen from the shuffle recipe
    assert sorted(a) == list(range(1, 9))
    assert generate(InputSpec(8, "random", seed=43)) != a


def test_generate_rejects_bad_spec():
    with pytest.raises(ValueError):
        InputSpec(5, "zipf")
    with pytest.raises(ValueError):
        InputSpec(0, "sorted")


# --- benchmark runner --------------------------------------------------------


def test_run_benchmark_three_trials():
    config = BenchConfig(sizes=(63,), dists=("random",), algos=(AlgoSpec(),), trials=3, seed=9)
    records = run_benchmark(config)
    assert len(records) == 3
    assert all(r.correct for r in records)
    assert all(r.n == 63 and r.k == 32 for r in records)
    assert [r.trial for r in records] == [0, 1, 2]


def test_run_benchmark_zero_trials_is_empty():
    records = run_benchmark(BenchConfig(sizes=(63,), trials=0))
    assert records == []
    assert records_to_csv(records) == CSV_HEADER + "\n"


def test_run_benchmark_deterministic():
    config = BenchConfig(
        sizes=(31, 63),
        dists=("random", "organpipe"),
        algos=(AlgoSpec(), AlgoSpec("quickselect", pivot="random")),
        trials=2,
        seed=4,
    )
    assert records_to_csv(run_benchmark(config)) == records_to_csv(run_benchmark(config))


def test_run_benchmark_shares_inputs_across_algos():
    config = BenchConfig(
        sizes=(63,),
        algos=(AlgoSpec(strategy="tree"), AlgoSpec(strategy="root")),
        trials=2,
        seed=1,
    )
    records = run_benchmark(config)
    tree = [r for r in records if r.swap_strategy == "tree"]
    root = [r for r in records if r.swap_strategy == "root"]
    assert [r.seed for r in tree] == [r.seed for r in root]


def test_run_benchmark_oracle_gate_aborts_with_repro(monkeypatch):
    monkeypatch.setattr(bench, "oracle_select", lambda values, k: object())
    with pytest.raises(OracleMismatchError) as err:
        run_benchmark(BenchConfig(sizes=(31,), trials=1, seed=7))
    message = str(err.value)
    for token in ("algo=", "n=31", "k=16", "dist=random", "seed="):
        assert token in message


def test_run_benchmark_phase_buckets_for_baselines():
    records = run_benchmark(
        BenchConfig(sizes=(63,), algos=(AlgoSpec("quickselect-mom"),), trials=1)
    )
    r = records[0]
    assert r.algo == "quickselect-mom"
    assert r.swap_strategy == ""
    assert r.presplit is None
    assert r.compares_construct == 0 and r.compares_swap == 0
    assert r.compares_total > 0


def test_run_benchmark_rejects_bad_k():
    with pytest.raises(ValueError):
        run_benchmark(BenchConfig(sizes=(31,), k=32))


# --- CSV ---------------------------------------------------------------------


def test_csv_header_is_pinned():
    assert CSV_HEADER == (
        "algo,swap_strategy,presplit,n,k,dist,seed,trial,"
        "compares_construct,moves_construct,compares_swap,moves_swap,"
        "compares_total,moves_total,elapsed_ns,correct"
    )


def test_emit_csv_line_counts(tmp_path):
    records = run_benchmark(BenchConfig(sizes=(31,), trials=2, seed=2))
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == CSV_HEADER
    assert len([line for line in lines if line]) == 3
    assert "\r" not in text


def test_csv_round_trip(tmp_path):
    records = run_benchmark(
        BenchConfig(sizes=(31,), algos=(AlgoSpec(), AlgoSpec("quickselect")), trials=2, seed=3)
    )
    path = tmp_path / "roundtrip.csv"
    emit_csv(records, path)
    assert parse_csv(str(path)) == records


def test_timing_defaults_to_zero_for_reproducibility():
    records = run_benchmark(BenchConfig(sizes=(31,), trials=1))
    assert records[0].elapsed_ns == 0
    timed = run_benchmark(BenchConfig(sizes=(31,), trials=1, timing=True))
    assert timed[0].elapsed_ns > 0


# --- worst-case search -------------------------------------------------------


def test_worstcase_exhaustive_n3_visits_18_instances():
    report = worst_case_search_exhaustive(3)[-1]
    assert report.n == 3
    assert report.instances_tested == 18
    # the witness reproduces the reported maximum
    arr = SentinelArray([1, *report.argmax_permutation, 3], 3)
    ctx = Metrics()
    dh_select(arr, report.argmax_k, SelectOptions(), ctx)
    assert ctx.swap.compares == report.max_compares_swap


def test_worstcase_exhaustive_n1_counts_single_guard():
    report = worst_case_search_exhaustive(1)[0]
    assert report.instances_tested == 1
    assert report.max_compares_swap == 1


def test_worstcase_exhaustive_counts_all_pairs():
    reports = worst_case_search_exhaustive(5)
    assert [r.instances_tested for r in reports] == [
        math.factorial(n) * n for n in range(1, 6)
    ]


def test_worstcase_exhaustive_bounds():
    with pytest.raises(ValueError):
        worst_case_search_exhaustive(10)


def test_worstcase_random_deterministic_and_reproducible():
    a = worst_case_search_random(64, samples=40, seed=5)
    b = worst_case_search_random(64, samples=40, seed=5)
    assert a == b
    assert a.instances_tested == 40
    # regenerate the witness from its seed and reproduce the count
    values = generate(InputSpec(64, "random", a.argmax_seed))
    assert tuple(values) == a.argmax_permutation
    from dualheap import prepare_buffer

    ctx = Metrics()
    dh_select(prepare_buffer(values), a.argmax_k, SelectOptions(), ctx)
    assert ctx.swap.compares == a.max_compares_swap


# --- growth fitting ----------------------------------------------------------


def _records_with_totals(pairs):
    return [
        ExperimentRecord(
            algo="synthetic",
            swap_strategy="",
            presplit=None,
            n=n,
            k=1,
            dist="sorted",
            seed=0,
            trial=0,
            compares_construct=0,
            moves_construct=0,
            compares_swap=0,
            moves_swap=0,
            compares_total=value,
            moves_total=0,
            elapsed_ns=0,
            correct=True,
        )
        for n, value in pairs
    ]


def test_fit_growth_exact_linear():
    records = _records_with_totals([(n, 7 * n) for n in (256, 1024, 4096)])
    assert abs(fit_growth(records, "compares_total") - 1.0) <= 0.01


def test_fit_growth_nlogn():
    sizes = (1024, 4096, 16384)
    records = _records_with_totals([(n, n * round(math.log2(n))) for n in sizes])
    # longhand least squares on the three exact log-log points
    xs = [math.log(n) for n in sizes]
    ys = [math.log(n * round(math.log2(n))) for n in sizes]
    xbar = sum(xs) / 3
    ybar = sum(ys) / 3
    expected = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert abs(expected - 1.1214) <= 0.001  # frozen from the formula above
    assert abs(fit_growth(records, "compares_total") - expected) <= 0.01


def test_fit_growth_constant():
    records = _records_with_totals([(n, 12) for n in (100, 1000, 10000)])
    assert abs(fit_growth(records, "compares_total")) <= 0.01


def test_fit_growth_needs_three_sizes():
    records = _records_with_totals([(256, 10), (512, 20)])
    with pytest.raises(ValueError):
        fit_growth(records, "compares_total")


def test_fit_growth_mean_vs_max_aggregates():
    records = _records_with_totals(
        [(256, 10), (256, 30), (1024, 40), (1024, 120), (4096, 160), (4096, 480)]
    )
    mean_slope = fit_growth(records, "compares_total", agg="mean")
    max_slope = fit_growth(records, "compares_total", agg="max")
    assert abs(mean_slope - 1.0) <= 0.01
    assert abs(max_slope - 1.0) <= 0.01
