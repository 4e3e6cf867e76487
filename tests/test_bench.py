import csv
import functools
import io
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dualheap.bench as bench
from dualheap import Metrics, SelectOptions, SentinelArray, dh_select, prepare_buffer
from dualheap.baselines import quickselect
from dualheap.bench import (
    CSV_FIELDS,
    ExperimentRecord,
    emit_csv,
    fit_growth,
    generate,
    run_algo,
    run_benchmark,
    worst_case_search_exhaustive,
    worst_case_search_random,
)
from dualheap.cli import main
from dualheap.errors import OracleMismatchError
from dualheap.rng import SplitMix64


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


# take() packs 4,096 outputs per block; these counts sit on and around the
# block edges.
@pytest.mark.parametrize("count", (0, 1, 2, 4095, 4096, 4097, 8192, 8193))
def test_take_equals_repeated_next_u64(count):
    for seed in (0, 1, 2**63, 2**64 - 1, 0x0123456789ABCDEF):
        block = SplitMix64(seed)
        stream = SplitMix64(seed)
        assert block.take(count) == [stream.next_u64() for _ in range(count)]
        assert block.state == stream.state


@pytest.mark.parametrize(
    ("call", "arg", "error"),
    [
        ("take", -4, ValueError),
        ("take", True, TypeError),
        ("take", 2.0, TypeError),
        ("below", 0, ValueError),
        ("below", -3, ValueError),
        ("below", True, TypeError),
        ("below", 2.0, TypeError),
    ],
)
def test_take_and_below_reject_a_bad_argument_before_drawing(call, arg, error):
    stream = SplitMix64(7)
    with pytest.raises(error, match="count" if call == "take" else "bound"):
        getattr(stream, call)(arg)
    assert stream.state == 7


@given(st.integers(0, 2**64 - 1), st.integers(0, 10_000))
def test_take_equals_repeated_next_u64_for_any_seed(seed, count):
    block = SplitMix64(seed)
    stream = SplitMix64(seed)
    assert block.take(count) == [stream.next_u64() for _ in range(count)]
    assert block.state == stream.state


def test_take_and_next_u64_continue_one_stream():
    mixed = SplitMix64(77)
    got = []
    for count in (3, 4096, 0, 1, 5000):
        got += mixed.take(count)
        got.append(mixed.next_u64())
    reference = SplitMix64(77)
    assert got == [reference.next_u64() for _ in range(len(got))]


# Every library entry point that seeds a stream, called with a seed.
SEEDED_CALLS = {
    "generate": lambda seed: generate(9, "random", seed),
    "run_benchmark": lambda seed: run_benchmark(sizes=(9,), trials=1, seed=seed),
    "worst_case_search_random": lambda seed: worst_case_search_random(9, 2, seed),
    "quickselect": lambda seed: quickselect(prepare_buffer([5, 3, 9, 1, 7]), 3, "random", seed=seed),
}


@pytest.mark.parametrize("call", SEEDED_CALLS.values(), ids=SEEDED_CALLS)
def test_seed_outside_64_bits_is_rejected(call):
    # splitmix64 keeps a seed's low 64 bits only, so -1 would alias 2**64 - 1
    # and 2**64 would alias 0
    for seed in (-1, 2**64, -(2**64)):
        with pytest.raises(ValueError, match="seed"):
            call(seed)
    with pytest.raises(TypeError, match="bool"):
        call(True)
    # a float would only fail at the first draw, if at all
    for seed in (1.0, 5.0):
        with pytest.raises(TypeError, match="float"):
            call(seed)
    call(0)
    call(2**64 - 1)


def test_non_int_seed_is_rejected_when_the_stream_is_created():
    # stored as state, a float would only fail at the first draw
    for seed in (1.0, 5.0, "5", None):
        with pytest.raises(TypeError, match="seed must be an int"):
            SplitMix64(seed)


# --- generators --------------------------------------------------------------


def test_generate_sorted():
    assert generate(5, "sorted") == [1, 2, 3, 4, 5]


def test_generate_reverse():
    assert generate(5, "reverse") == [5, 4, 3, 2, 1]


def test_generate_organpipe():
    assert generate(5, "organpipe") == [1, 2, 3, 2, 1]
    assert generate(6, "organpipe") == [1, 2, 3, 3, 2, 1]


def test_generate_allequal():
    assert generate(4, "allequal") == [1, 1, 1, 1]


def test_generate_fewvalues():
    assert generate(6, "fewvalues") == [1, 2, 3, 4, 1, 2]


def test_generate_random_is_seed_determined_permutation():
    a = generate(8, "random", seed=42)
    b = generate(8, "random", seed=42)
    assert a == b == [4, 2, 7, 3, 5, 1, 8, 6]  # frozen from the shuffle recipe
    assert sorted(a) == list(range(1, 9))
    assert generate(8, "random", seed=43) != a


def _reference_shuffle(n, seed):
    """The documented recipe, one ``below`` draw per position."""
    values = list(range(1, n + 1))
    stream = SplitMix64(seed)
    for i in range(n - 1, 0, -1):
        j = stream.below(i + 1)
        values[i], values[j] = values[j], values[i]
    return values


@pytest.mark.parametrize("n", (1, 2, 3, 4095, 4096, 4097, 20000))
def test_generate_random_follows_the_fisher_yates_recipe(n):
    for seed in (0, 981, 2**64 - 1):
        assert generate(n, "random", seed) == _reference_shuffle(n, seed)


def test_generate_rejects_bad_spec():
    with pytest.raises(ValueError):
        generate(5, "zipf")
    with pytest.raises(ValueError):
        generate(0, "sorted")


@pytest.mark.parametrize(
    "spec, good, bad, message",
    [
        (SelectOptions(), {"presplit": 2}, {"strategy": "spiral"}, "unknown swap strategy 'spiral'"),
    ],
    ids=lambda value: type(value).__name__ if hasattr(value, "_fields") else None,
)
def test_spec_replace_runs_the_constructor_checks(spec, good, bad, message):
    with pytest.raises(ValueError, match=message):
        spec._replace(**bad)
    replaced = spec._replace(**good)
    assert type(replaced) is type(spec)
    assert replaced._asdict() == {**spec._asdict(), **good}


# --- benchmark runner --------------------------------------------------------


def test_run_benchmark_three_trials():
    records = run_benchmark(sizes=(63,), dists=("random",), algos=(SelectOptions(),), trials=3, seed=9)
    assert len(records) == 3
    assert all(r.correct for r in records)
    assert all(r.n == 63 and r.k == 32 for r in records)
    assert [r.trial for r in records] == [0, 1, 2]


def test_bench_config_rejects_fewer_than_one_trial():
    # like `bench --trials 0`, which exits 1, not an empty CSV
    for trials in (0, -2):
        with pytest.raises(ValueError, match=f"need at least one trial, got {trials}"):
            run_benchmark(sizes=(31,), trials=trials)


def test_run_benchmark_deterministic():
    config = {
        "sizes": (31, 63),
        "dists": ("random", "organpipe"),
        "algos": (SelectOptions(), "quickselect-random"),
        "trials": 2,
        "seed": 4,
    }
    assert run_benchmark(**config) == run_benchmark(**config)


def test_run_benchmark_shares_inputs_across_algos():
    records = run_benchmark(
        sizes=(63,),
        algos=(SelectOptions(strategy="tree"), SelectOptions(strategy="root")),
        trials=2,
        seed=1,
    )
    tree = [r for r in records if r.swap_strategy == "tree"]
    root = [r for r in records if r.swap_strategy == "root"]
    assert [r.seed for r in tree] == [r.seed for r in root]


def test_run_benchmark_handles_each_input_once(monkeypatch):
    # one input and one oracle answer per (size, dist, trial), whatever the
    # number of algorithms; the rows stay grouped by algorithm
    calls = dict.fromkeys(("generate", "oracle_select"), 0)
    for name in calls:
        def counted(*args, name=name, real=getattr(bench, name)):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(bench, name, counted)
    algos = (SelectOptions(strategy="root"), "quickselect-random", "quickselect-mom")
    config = {"sizes": (31, 64), "dists": ("random", "organpipe"), "trials": 3, "seed": 2}
    records = run_benchmark(algos=algos, **config)
    assert calls == {"generate": 12, "oracle_select": 12}
    labels = ["dhselect", "quickselect-random", "quickselect-mom"]
    assert [(r.algo, r.trial) for r in records] == [(label, t) for _ in range(4) for label in labels for t in range(3)]
    # each algorithm's rows are those of a run with that algorithm alone
    for algo, label in zip(algos, labels):
        alone = run_benchmark(algos=(algo,), **config)
        assert [r for r in records if r.algo == label] == alone, algo


def test_run_benchmark_reports_the_first_failing_trial(monkeypatch):
    # the second algorithm fails trial 0 and the first fails trial 1: the
    # run stops at trial 0, whichever algorithm comes first
    seeds = SplitMix64(7).take(2)
    wrong = {("first", seeds[1]), ("random", seeds[0])}

    def flaky(arr, k, pivot, ctx, seed=0):
        value = quickselect(arr, k, pivot, ctx, seed=seed)
        return value + 1 if (pivot, seed) in wrong else value

    monkeypatch.setattr(bench, "quickselect", flaky)
    algos = ("quickselect-first", "quickselect-random")
    with pytest.raises(OracleMismatchError) as err:
        run_benchmark(sizes=(31,), algos=algos, trials=2, seed=7)
    assert str(err.value) == f"oracle mismatch: algo=quickselect-random n=31 k=16 dist=random seed={seeds[0]} got=17"


@pytest.mark.parametrize("algo", [SelectOptions("root", 2), *bench.QUICKSELECT_PIVOTS], ids=str)
def test_run_algo_runs_what_the_configuration_names(algo):
    values = generate(255, "random", 3)
    arr, ctx = prepare_buffer(values), Metrics()
    expected_arr, expected_ctx = prepare_buffer(values), Metrics()
    if isinstance(algo, SelectOptions):
        expected = dh_select(expected_arr, 128, algo, expected_ctx).value
    else:
        expected = quickselect(expected_arr, 128, bench.QUICKSELECT_PIVOTS[algo], expected_ctx, seed=3)
    assert run_algo(algo, arr, 128, 3, ctx) == expected == 128
    assert arr.buf == expected_arr.buf
    assert ctx.snapshot() == expected_ctx.snapshot()


def test_run_benchmark_oracle_gate_aborts_with_repro(monkeypatch):
    monkeypatch.setattr(bench, "oracle_select", lambda values, k: object())
    with pytest.raises(OracleMismatchError) as err:
        run_benchmark(sizes=(31,), trials=1, seed=7)
    message = str(err.value)
    for token in ("algo=", "n=31", "k=16", "dist=random", "seed="):
        assert token in message


@pytest.mark.parametrize(
    "algo",
    ["quickselect-first", "quickselect-random", "quickselect-mom"],
)
def test_run_benchmark_partition_gate_covers_every_algo(algo, monkeypatch):
    # the right value with the buffer left as it was: only the partition check sees it
    monkeypatch.setattr(bench, "quickselect", lambda arr, k, *args, **kwargs: sorted(arr.payload())[k - 1])
    with pytest.raises(OracleMismatchError, match="algo=" + algo):
        run_benchmark(sizes=(31,), algos=(algo,), trials=1, seed=7)


def test_run_benchmark_phase_buckets_for_baselines():
    records = run_benchmark(sizes=(63,), algos=("quickselect-mom",), trials=1)
    r = records[0]
    assert r.algo == "quickselect-mom"
    assert r.swap_strategy == ""
    assert r.presplit is None
    assert r.compares_construct == 0 and r.compares_swap == 0
    assert r.compares_total > 0


def test_run_benchmark_rejects_bad_k():
    with pytest.raises(IndexError, match=r"selection index k=32 out of range 1\.\.31"):
        run_benchmark(sizes=(31,), k=32)


def _no_input_expected(*args):
    raise AssertionError(f"an input was generated for {args}")


@pytest.mark.parametrize("k, error", [(0, IndexError), (32, IndexError), (True, TypeError), (20, IndexError)])
def test_bad_k_rejected_before_any_trial_or_sample(k, error, monkeypatch):
    # the check dh_select and quickselect make, before a single input exists;
    # k = 20 fits the first size and not the second, so every size is checked
    # before the first trial
    monkeypatch.setattr(bench, "generate", _no_input_expected)
    with pytest.raises(error):
        run_benchmark(sizes=(31, 15), k=k)
    with pytest.raises(error):
        worst_case_search_random(15, samples=3, seed=1, k=k)
    # worstcase --mode random takes several sizes, and checks k against each
    # before its first sample; 0 and True never get past the flag parser
    argv = ["worstcase", "--mode", "random", "--n", "31,15", "--samples", "3", "--k", str(k)]
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    assert code == 1


# --- CSV ---------------------------------------------------------------------


def test_csv_header_is_pinned():
    assert ",".join(CSV_FIELDS) == (
        "algo,swap_strategy,presplit,n,k,dist,seed,trial,"
        "compares_construct,moves_construct,compares_swap,moves_swap,"
        "compares_total,moves_total,elapsed_ns,correct"
    )


def test_emit_csv_line_counts(tmp_path):
    records = run_benchmark(sizes=(31,), trials=2, seed=2)
    path = tmp_path / "out.csv"
    emit_csv(records, path)
    text = path.read_text()
    lines = text.split("\n")
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len([line for line in lines if line]) == 3
    assert "\r" not in text


def test_csv_round_trip():
    records = run_benchmark(sizes=(31,), algos=(SelectOptions(), "quickselect-first"), trials=2, seed=3)
    rows = _emitted_rows(emit_csv, records)
    assert rows[0] == list(CSV_FIELDS)
    assert list(map(_read_record, rows[1:])) == records


def test_timing_defaults_to_zero_for_reproducibility():
    records = run_benchmark(sizes=(31,), trials=1)
    assert records[0].elapsed_ns == 0
    timed = run_benchmark(sizes=(31,), trials=1, timing=True)
    assert timed[0].elapsed_ns > 0


# --- specs and records -------------------------------------------------------

# Each frozen spec: every field given positionally, the same value given by
# keywords that leave defaulted fields out, and a keyword that changes it.
FROZEN_SPECS = {
    "SelectOptions": (SelectOptions, ("tree", 1), {}, {"presplit": 2}),
}


@pytest.mark.parametrize("cls, args, kwargs, change", FROZEN_SPECS.values(), ids=FROZEN_SPECS)
def test_frozen_spec_is_an_immutable_hashable_value(cls, args, kwargs, change):
    spec = cls(*args)
    assert spec == cls(**kwargs) and hash(spec) == hash(cls(**kwargs))
    assert len({spec, cls(*args), cls(**kwargs)}) == 1
    assert spec != cls(**{**kwargs, **change})
    for name, value in change.items():
        with pytest.raises(AttributeError):
            setattr(spec, name, value)
        assert getattr(spec, name) != value


def test_frozen_spec_defaults():
    assert SelectOptions() == SelectOptions(strategy="tree", presplit=1)


def test_run_benchmark_defaults():
    # the median of a random input at each default size, by the default
    # SelectOptions, each input seed drawn from master seed 0; untimed
    records = run_benchmark(trials=1)
    seeds = SplitMix64(0).take(len(bench.DEFAULT_SIZES))
    assert [(r.algo, r.swap_strategy, r.presplit, r.n, r.k, r.dist, r.seed) for r in records] == [
        ("dhselect", "tree", 1, n, (n + 1) // 2, "random", seed) for n, seed in zip(bench.DEFAULT_SIZES, seeds)
    ]
    assert not any(r.elapsed_ns for r in records)


@pytest.mark.parametrize(
    "cls, args, kwargs, message",
    [
        (generate, (0, "sorted"), {}, "input size must be >= 1, got 0"),
        (generate, (5, "zipf"), {}, "unknown dist 'zipf', expected one of " + repr(bench.DISTS)),
        # an algo is a SelectOptions or the name of a quickselect series in the
        # CSV: neither the dhselect label nor the CLI's --algo quickselect is one
        (run_benchmark, (), {"algos": ("heapselect",)}, "unknown algo 'heapselect', expected a SelectOptions or one "
         "of " + repr(tuple(bench.QUICKSELECT_PIVOTS))),
        (run_benchmark, (), {"algos": ("quickselect-last",)}, "unknown algo 'quickselect-last', expected a "
         "SelectOptions or one of " + repr(tuple(bench.QUICKSELECT_PIVOTS))),
        (run_benchmark, (), {"algos": ("dhselect",)}, "unknown algo 'dhselect', expected a SelectOptions or one of "
         + repr(tuple(bench.QUICKSELECT_PIVOTS))),
        (run_benchmark, (), {"algos": (SelectOptions(), "quickselect")}, "unknown algo 'quickselect', expected a "
         "SelectOptions or one of " + repr(tuple(bench.QUICKSELECT_PIVOTS))),
        (SelectOptions, ("spiral",), {}, "unknown swap strategy 'spiral', expected one of ('tree', 'branch', 'root')"),
        (run_benchmark, (), {"trials": 0}, "need at least one trial, got 0"),
        (quickselect, (prepare_buffer([5, 3, 9]), 2, "last"), {}, "unknown pivot rule 'last', expected one of "
         "('first', 'random', 'median_of_medians')"),
        (SelectOptions, (), {"presplit": 3}, "presplit must be one of (0, 1, 2), got 3"),
        (run_benchmark, (), {"sizes": (31, 0)}, "input size must be >= 1, got 0"),
        # n = 0 reported a k error
        (worst_case_search_random, (0, 5, 0), {}, "input size must be >= 1, got 0"),
        # each of these was accepted, or failed only after the first trials ran
        (run_benchmark, (), {"dists": ("random", "nope")}, "unknown dist 'nope', expected one of " + repr(bench.DISTS)),
        (generate, (5, "random", -1), {}, "expected a seed in 0..18446744073709551615, got -1"),
        (generate, (5, "sorted", 2**70), {}, f"expected a seed in 0..18446744073709551615, got {2**70}"),
        (quickselect, (prepare_buffer([5, 3, 9]), 2, "random"), {"seed": -1}, "expected a seed in "
         "0..18446744073709551615, got -1"),
        (run_benchmark, (), {"seed": 2**64}, f"expected a seed in 0..18446744073709551615, got {2**64}"),
        # an empty series ran no trial and wrote a bare CSV header
        (run_benchmark, (), {"sizes": ()}, "sizes must not be empty"),
        (run_benchmark, (), {"dists": ()}, "dists must not be empty"),
        (run_benchmark, (), {"algos": ()}, "algos must not be empty"),
    ],
)
def test_spec_validation_messages(cls, args, kwargs, message, monkeypatch):
    # run_benchmark checks every argument before its first input
    monkeypatch.setattr(bench, "generate", _no_input_expected)
    with pytest.raises(ValueError) as caught:
        cls(*args, **kwargs)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "cls, args, kwargs, message",
    [
        # presplit counts heap builds; a bool or float would leak into the counts and the CSV
        (SelectOptions, (), {"presplit": True}, "presplit must be an int, not bool (True)"),
        (SelectOptions, (), {"presplit": 1.0}, "presplit must be an int, not float (1.0)"),
        # the class in place of an instance of it
        (run_benchmark, (), {"algos": (SelectOptions,)}, "each algo must be a SelectOptions or a name, not type "
         "(<class 'dualheap.select.SelectOptions'>)"),
        # a bool size was written to the CSV as "true", which fit cannot read back
        (generate, (True, "sorted"), {}, "input size must be an int, not bool (True)"),
        (generate, (5.0, "sorted"), {}, "input size must be an int, not float (5.0)"),
        (run_benchmark, (), {"sizes": (31, True)}, "input size must be an int, not bool (True)"),
        (run_benchmark, (), {"sizes": (31.0,)}, "input size must be an int, not float (31.0)"),
        (run_benchmark, (), {"trials": True}, "trials must be an int, not bool (True)"),
        (run_benchmark, (), {"trials": 3.0}, "trials must be an int, not float (3.0)"),
        # True ran as max_n = 1 and as one sample; 2.5 samples failed with Python's generic message
        (worst_case_search_exhaustive, (True,), {}, "max_n must be an int, not bool (True)"),
        (worst_case_search_random, (5, True, 0), {}, "samples must be an int, not bool (True)"),
        (worst_case_search_random, (5, 2.5, 0), {}, "samples must be an int, not float (2.5)"),
        (worst_case_search_random, (5.0, 5, 0), {}, "input size must be an int, not float (5.0)"),
        # a plain tuple equals a SelectOptions but is no configuration; a truthy
        # non-bool timing wrote a real elapsed_ns
        (generate, (5, "random", 1.5), {}, "seed must be an int, not float (1.5)"),
        (quickselect, (prepare_buffer([5, 3, 9]), 2), {"seed": True}, "seed must be an int, not bool (True)"),
        (run_benchmark, (), {"algos": (("tree", 1),)}, "each algo must be a SelectOptions or a name, not tuple "
         "(('tree', 1))"),
        (run_benchmark, (), {"timing": "no"}, "timing must be a bool, not str ('no')"),
        (run_benchmark, (), {"timing": 1}, "timing must be a bool, not int (1)"),
        # a scalar series was iterated: "unknown dist 'r'", a SelectOptions' own fields, or
        # Python's "'int' object is not iterable"
        (run_benchmark, (), {"sizes": 31}, "sizes must be a tuple, not int (31)"),
        (run_benchmark, (), {"sizes": [31]}, "sizes must be a tuple, not list ([31])"),
        (run_benchmark, (), {"dists": "random"}, "dists must be a tuple, not str ('random')"),
        (run_benchmark, (), {"algos": SelectOptions()}, "algos must be a tuple, not SelectOptions "
         "(SelectOptions(strategy='tree', presplit=1))"),
    ],
)
def test_spec_type_messages(cls, args, kwargs, message, monkeypatch):
    monkeypatch.setattr(bench, "generate", _no_input_expected)
    with pytest.raises(TypeError) as caught:
        cls(*args, **kwargs)
    assert str(caught.value) == message


def _emitted_rows(emit, records) -> list[list[str]]:
    """The rows a CSV reader gets back from what ``emit`` writes."""
    out = io.StringIO()
    emit(records, out)
    out.seek(0)
    return list(csv.reader(out))


def _read_record(row) -> ExperimentRecord:
    """The record an emitted bench row was written from."""
    algo, strategy, presplit, n, k, dist, *counts, correct = row
    presplit = int(presplit) if presplit else None
    return ExperimentRecord(algo, strategy, presplit, int(n), int(k), dist, *map(int, counts), correct == "true")


def _read_report(row) -> bench.WorstCaseReport:
    """The report an emitted worstcase row was written from."""
    n, tested, compares, k, seed, permutation = row
    seed = int(seed) if seed else None
    return bench.WorstCaseReport(int(n), int(tested), int(compares), int(k), seed, tuple(map(int, permutation.split())))


_worstcase_csv = functools.partial(bench.write_csv, bench.WORSTCASE_FIELDS)


def test_experiment_record_round_trips_through_a_row():
    records = run_benchmark(sizes=(31,), algos=(SelectOptions(), "quickselect-first"), trials=1, seed=5)
    assert [r.presplit for r in records] == [1, None]
    failed = ExperimentRecord(
        algo="quickselect-first", swap_strategy="", presplit=None, n=3, k=2, dist="sorted", seed=7, trial=0,
        compares_construct=0, moves_construct=0, compares_swap=0, moves_swap=0, compares_total=5, moves_total=2,
        elapsed_ns=0, correct=False,
    )
    cells = ["quickselect-first", "", "", "3", "2", "sorted", "7", "0", "0", "0", "0", "0", "5", "2", "0", "false"]
    rows = _emitted_rows(emit_csv, [*records, failed])
    assert rows[0] == list(CSV_FIELDS)
    assert list(map(_read_record, rows[1:])) == [*records, failed]
    assert [row[2] for row in rows[1:3]] == ["1", ""]
    assert rows[-1] == cells


def test_worstcase_report_row():
    report = bench.WorstCaseReport(
        n=3, instances_tested=18, max_compares_swap=4, argmax_k=2, argmax_seed=None, argmax_permutation=()
    )
    assert _emitted_rows(_worstcase_csv, [report]) == [list(bench.WORSTCASE_FIELDS), ["3", "18", "4", "2", "", ""]]


def test_worstcase_report_round_trips_through_a_row():
    reports = [
        worst_case_search_exhaustive(3)[-1],
        worst_case_search_random(15, 20, 3),
        worst_case_search_random(64, 2, 3),
        worst_case_search_random(65, 2, 3),
        worst_case_search_random(127, 2, 3),
    ]
    rows = _emitted_rows(_worstcase_csv, reports)
    assert rows[0] == list(bench.WORSTCASE_FIELDS)
    assert list(map(_read_report, rows[1:])) == reports
    # exhaustive mode has no seed; a witness above 64 elements is its seed alone
    assert rows[1][4:] == ["", " ".join(map(str, reports[0].argmax_permutation))]
    assert rows[3][5].split() == list(map(str, generate(64, "random", reports[2].argmax_seed)))
    assert [row[4:] for row in rows[4:]] == [[str(report.argmax_seed), ""] for report in reports[3:]]


def test_sentinel_array_stays_mutable():
    arr = SentinelArray([0, 2, 1, 3])
    assert arr.n == 2
    arr.buf = [0, 1, 3]
    assert (arr.n, arr.payload()) == (1, [1])


# --- worst-case search -------------------------------------------------------


def test_worstcase_exhaustive_n3_visits_18_instances():
    report = worst_case_search_exhaustive(3)[-1]
    assert report.n == 3
    assert report.instances_tested == 18
    # the witness reproduces the reported maximum
    arr = SentinelArray([1, *report.argmax_permutation, 3])
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
    values = generate(64, "random", a.argmax_seed)
    assert tuple(values) == a.argmax_permutation
    ctx = Metrics()
    dh_select(prepare_buffer(values), a.argmax_k, SelectOptions(), ctx)
    assert ctx.swap.compares == a.max_compares_swap


# --- growth fitting ----------------------------------------------------------


def test_fit_growth_exact_linear():
    points = [(n, 7 * n) for n in (256, 1024, 4096)]
    assert abs(fit_growth(points, "compares_total") - 1.0) <= 0.01


def test_fit_growth_nlogn():
    sizes = (1024, 4096, 16384)
    points = [(n, n * round(math.log2(n))) for n in sizes]
    # longhand least squares on the three exact log-log points
    xs = [math.log(n) for n in sizes]
    ys = [math.log(n * round(math.log2(n))) for n in sizes]
    xbar = sum(xs) / 3
    ybar = sum(ys) / 3
    expected = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert abs(expected - 1.1214) <= 0.001  # frozen from the formula above
    assert abs(fit_growth(points, "compares_total") - expected) <= 0.01


def test_fit_growth_constant():
    points = [(n, 12) for n in (100, 1000, 10000)]
    assert abs(fit_growth(points, "compares_total")) <= 0.01


def test_fit_growth_needs_three_sizes():
    with pytest.raises(ValueError):
        fit_growth([(256, 10), (512, 20)], "compares_total")


@pytest.mark.parametrize(
    "pairs, message",
    [
        # a nan or an inf fitted as slope=nan; a size below 1 failed with "math domain error"
        ([(256, math.nan), (1024, 40), (4096, 160)], "metric 'compares_total' must be finite to fit, got nan at n=256"),
        ([(256, 10), (1024, math.inf), (4096, 160)], "metric 'compares_total' must be finite to fit, got inf at n=1024"),
        # max() over [10, nan] is 10, so the nan must be refused per record
        ([(256, 10), (256, math.nan), (1024, 40), (4096, 160)], "must be finite to fit, got nan at n=256"),
        ([(0, 10), (1024, 40), (4096, 160)], "input size must be >= 1, got 0"),
        ([(-3, 10), (1024, 40), (4096, 160)], "input size must be >= 1, got -3"),
    ],
    ids=["nan", "inf", "nan-beside-a-value", "n=0", "n=-3"],
)
@pytest.mark.parametrize("agg", ["mean", "max"])
def test_fit_growth_rejects_values_it_cannot_fit(pairs, message, agg):
    with pytest.raises(ValueError, match=message):
        fit_growth(pairs, "compares_total", agg)


def test_fit_growth_mean_vs_max_aggregates():
    points = [(256, 10), (256, 30), (1024, 40), (1024, 120), (4096, 160), (4096, 480)]
    mean_slope = fit_growth(points, "compares_total", agg="mean")
    max_slope = fit_growth(points, "compares_total", agg="max")
    assert abs(mean_slope - 1.0) <= 0.01
    assert abs(max_slope - 1.0) <= 0.01
