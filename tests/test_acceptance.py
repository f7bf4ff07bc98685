"""Release gate: one test per advertised guarantee.

Each test pins one end-to-end property of the library with fixed seeds and
tolerances, so `pytest -v tests/test_acceptance.py` reads as a checklist.
The tolerances are frozen here on purpose; loosening one is a release
decision, not a test fix.
"""

import math
import time

import numpy as np

from clbf.analytics import (
    ModelParams,
    binom,
    compare_backends,
    count_critical_pairs,
    critical_pair_histogram,
    fp_probability,
    fp_subset_count,
    fp_subset_totals,
    occupancy_pmf_vector,
)
from clbf.cli import main
from clbf.scenario import load_preset
from clbf.segments import count_valid_sequences, enumerate_valid_sequences
from clbf.simulate import (
    PlacementSpec,
    SimulationSetup,
    run_point,
    run_sweep,
    sample_occupancy,
)

# frozen gate parameters
ARGMIN_TOLERANCE = 1            # grid steps between empirical and model optimum
SWEEP_RUNTIME_BUDGET_S = 600.0  # both hash-count sweeps together
COUNT_GRID_BUDGET_S = 1.0       # closed-form count vs enumeration, 80 cells
HISTOGRAM_TRIALS = 100_000
HISTOGRAM_SEED = 424242
HISTOGRAM_SIGMA = 3.0
PMF_MASS_TOLERANCE = 1e-9
SOAK_TRIALS = 100_000
SOAK_META_SEED = 20260818
GRID_TRIALS = 100_000
GRID_SEED = 515151
GRID_COVERAGE = 0.90


def _argmin_value(rows, key):
    return min(rows, key=lambda r: (key(r), r.value)).value


def test_a1_optimal_hash_count_matches_model():
    start = time.perf_counter()
    for preset in ("hash-sweep-d8", "hash-sweep-d16"):
        scn = load_preset(preset)
        param, values = scn.sweep
        rows = run_sweep(scn.setup, param, values, scn.trials, scn.base_seed)
        empirical = _argmin_value(rows, lambda r: r.result.fp_rate)
        model = _argmin_value(rows, lambda r: r.model_fp)
        assert abs(empirical - model) <= ARGMIN_TOLERANCE, (
            f"{preset}: empirical optimum k2={empirical}, model k2={model}"
        )
    elapsed = time.perf_counter() - start
    print(f"hash-count sweeps: {elapsed:.1f}s")
    assert elapsed < SWEEP_RUNTIME_BUDGET_S

    # the single-vehicle-per-fragment geometry admits exactly one route
    # sequence, so the model column can be cross-checked against a direct
    # expectation over the occupancy law for that sequence
    scn = load_preset("hash-sweep-d16")
    _, values = scn.sweep
    j = count_critical_pairs(tuple(range(1, 16)), 16)
    assert j == 1
    exact = []
    model = []
    for k2 in values:
        occ = occupancy_pmf_vector(200, k2, 15)
        hit = math.fsum(
            p * (1.0 - (1.0 - (a / 200.0) ** k2) ** j)
            for a, p in enumerate(occ, start=1)
        )
        exact.append((hit, k2))
        model.append(
            (fp_probability(ModelParams(m2=200, k2=k2, delta=16, h=15)).total, k2)
        )
    assert min(exact)[1] == min(model)[1] == 9


def test_a2_fp_rate_non_increasing_in_filter_width():
    scn = load_preset("width-sweep")
    param, values = scn.sweep
    assert param == "m2"
    rows = run_sweep(scn.setup, param, values, scn.trials, scn.base_seed)
    prev = None
    for row in rows:
        rate = row.result.fp_rate
        lo, hi = row.result.fp_interval()
        if prev is not None:
            prev_rate, _, prev_hi = prev
            # a rise is tolerated only while the 95% intervals overlap
            assert rate <= prev_rate or lo <= prev_hi, (
                f"m2={row.value}: rate {rate:.5f} rose past CI of previous point"
            )
        prev = (rate, lo, hi)


def test_a3_fp_rate_non_decreasing_in_fragment_count():
    scn = load_preset("segment-sweep")
    param, values = scn.sweep
    assert param == "delta"
    rows = run_sweep(scn.setup, param, values, scn.trials, scn.base_seed)
    prev = None
    for row in rows:
        rate = row.result.fp_rate
        lo, hi = row.result.fp_interval()
        if prev is not None:
            prev_rate, prev_lo, _ = prev
            assert rate >= prev_rate or hi >= prev_lo, (
                f"delta={row.value}: rate {rate:.5f} fell past CI of previous point"
            )
        prev = (rate, lo, hi)


def test_a4_sequence_count_matches_enumeration():
    start = time.perf_counter()
    for fragments in range(1, 9):
        for length in range(1, 11):
            seqs = enumerate_valid_sequences(fragments, length)
            assert len(seqs) == len(set(seqs))
            assert count_valid_sequences(fragments, length) == len(seqs)
    assert time.perf_counter() - start < COUNT_GRID_BUDGET_S


def test_a5_occupancy_law_matches_sampled_histograms():
    for m2, k2, h in ((8, 2, 2), (16, 3, 4), (200, 5, 15)):
        pmf = occupancy_pmf_vector(m2, k2, h)
        assert abs(math.fsum(pmf) - 1.0) <= PMF_MASS_TOLERANCE
        counts = sample_occupancy(
            m2, k2, h, HISTOGRAM_TRIALS, base_seed=HISTOGRAM_SEED
        )
        assert counts.min() >= 1 and counts.max() <= len(pmf)
        observed = np.bincount(counts, minlength=len(pmf) + 1)
        for alpha, p in enumerate(pmf, start=1):
            expected = HISTOGRAM_TRIALS * p
            sigma = math.sqrt(HISTOGRAM_TRIALS * p * (1.0 - p))
            deviation = abs(observed[alpha] - expected)
            assert deviation <= HISTOGRAM_SIGMA * sigma or deviation == 0.0, (
                f"(m2={m2},k2={k2},h={h}) alpha={alpha}: "
                f"observed {observed[alpha]}, expected {expected:.1f}"
            )


def test_a6_no_false_negatives_across_randomized_trials():
    meta = np.random.default_rng(SOAK_META_SEED)
    policies = ("balanced_prefix", "random", "free")
    attempted = classified = misses = 0
    tag = 0
    while classified < SOAK_TRIALS:
        delta = int(meta.integers(2, 7))
        h = int(meta.integers(1, 8))  # h=1 takes the batch engine's fallback
        setup = SimulationSetup(
            n_nodes=h + 1 + int(meta.integers(0, 5)),
            num_segments=delta,
            road_length_m=50.0 * delta,
            placement=PlacementSpec(policies[int(meta.integers(0, 3))]),
            h=h,
            m1=int(meta.integers(8, 65)) * 8,
            k1=int(meta.integers(1, 5)),
            m2=int(meta.integers(2, 17)) * 8,
            k2=int(meta.integers(1, 5)),
        )
        result = run_point(
            setup, 500, base_seed=int(meta.integers(0, 2**31)), point_tag=tag
        )
        attempted += result.trials
        classified += result.effective
        misses += result.miss
        tag += 1
    print(f"soak: {classified} classified of {attempted} attempted, {tag} setups")
    assert classified >= SOAK_TRIALS
    assert misses == 0


def test_a7_unconditional_fp_model_covers_empirical_grid():
    points = []
    tag = 0
    for delta in (2, 3, 4):
        for h in (4, 6):
            for m2 in (128, 160):
                for k2 in (2, 3):
                    setup = SimulationSetup(
                        n_nodes=h + 1,
                        num_segments=delta,
                        road_length_m=100.0 * delta,
                        placement=PlacementSpec("free"),
                        h=h,
                        m1=2048,
                        k1=3,
                        m2=m2,
                        k2=k2,
                    )
                    result = run_point(setup, GRID_TRIALS, GRID_SEED, point_tag=tag)
                    lo, hi = result.fp_interval()
                    model = fp_probability(
                        ModelParams(m2=m2, k2=k2, delta=delta, h=h),
                        backend="oracle",
                    ).total
                    points.append(lo <= model <= hi)
                    tag += 1
    covered = sum(points)
    print(f"model-in-CI coverage: {covered}/{len(points)}")
    assert covered >= math.ceil(GRID_COVERAGE * len(points))


def test_a8_critical_pair_accounting_and_backend_report():
    # two-fragment, three-hop route: two single-swap sequences and one
    # double-swap sequence, four ambiguous singletons in total
    hist = critical_pair_histogram(2, 3)
    assert hist == (2, 1)
    totals = fp_subset_totals(hist, 2, 3)
    assert totals[0] == 4

    # subset counter against exhaustive enumeration over every pool size
    # small enough to brute-force
    from itertools import combinations

    for pool in range(0, 13):
        for critical in range(0, pool + 1):
            marked = set(range(critical))
            for j in range(1, pool + 1):
                brute = sum(
                    1
                    for subset in combinations(range(pool), j)
                    if marked.intersection(subset)
                )
                assert fp_subset_count(j, critical, pool) == brute
                assert brute == binom(pool, j) - binom(pool - critical, j)

    # fitted vs enumerated histograms: reported, not asserted, because the
    # fitted polynomial is a regression and drifts outside its regime
    for delta, h in ((2, 3), (4, 6), (8, 15)):
        report = compare_backends(delta, h)
        assert len(report.closed) == len(report.exact)
        print(report.csv_text())


def test_a9_reruns_are_byte_identical(tmp_path, capsys):
    scenario = tmp_path / "tiny.ini"
    scenario.write_text(
        "[network]\n"
        "n = 6\n"
        "delta = 3\n"
        "road_length_m = 900.0\n"
        "placement = free\n"
        "hops = 4\n"
        "\n"
        "[filters]\n"
        "m1 = 256\n"
        "k1 = 3\n"
        "m2 = 64\n"
        "k2 = 3\n"
        "\n"
        "[experiment]\n"
        "trials = 50\n"
        "base_seed = 99\n"
        "sweep = k2:2..3\n"
    )
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        out.mkdir()
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out)]) == 0
        blobs.append((out / "tiny.csv").read_bytes())
    assert blobs[0] == blobs[1]

    point = tmp_path / "point.ini"
    point.write_text(scenario.read_text().replace("sweep = k2:2..3\n", ""))
    blobs = []
    for sub in ("p1", "p2"):
        out = tmp_path / sub
        out.mkdir()
        assert main(["simulate", "--scenario", str(point), "--out", str(out)]) == 0
        blobs.append((out / "point.csv").read_bytes())
    assert blobs[0] == blobs[1]

    texts = []
    for _ in range(2):
        capsys.readouterr()
        args = ["analyze", "--delta", "3", "--hops", "4", "--m2", "64",
                "--k2", "3", "--sweep", "k2:2..4"]
        assert main(args) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
