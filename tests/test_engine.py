import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exitsim.engine import (
    AggregateReport,
    DecisionRecord,
    Environment,
    PolicyTable,
    _cell_counter,
    _suffix_histogram,
    _table_counts,
    policy_stats,
    run_oracle,
    run_plain,
    run_with_predictor,
)
from exitsim.optimizer import sweep_bandwidths
from exitsim.predictor import make_labels
from exitsim.trace import SampleTrace, Thresholds, TraceSet, check_gamma, check_lambda

from helpers import (
    VGG_TOPOLOGY,
    golden_fraction_traces,
    latency_of,
    literal_latency,
    literal_oracle_walk,
    literal_plain_walk,
    literal_predictor_walk,
    random_gamma,
    random_lambda,
    random_topology,
    random_trace_set,
)


def test_golden_plain_costs():
    ts = golden_fraction_traces()
    _, rep = run_plain(ts, (0.9, 0.9))
    assert rep.mean_on_device_mflops == pytest.approx(42.44, abs=0.02)
    assert rep.mean_total_mflops == pytest.approx(79.64, abs=0.02)
    assert rep.exit_distribution == pytest.approx((0.6662, 0.1981, 0.1357), abs=1e-12)


def test_golden_oracle_costs():
    ts = golden_fraction_traces()
    _, rep = run_oracle(ts, (0.9, 0.9))
    assert rep.mean_on_device_mflops == pytest.approx(34.93, abs=0.02)
    assert rep.mean_total_mflops == pytest.approx(72.13, abs=0.02)


def test_lambda_at_softmax_floor_exits_everything_at_one():
    rng = np.random.default_rng(0)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=100)
    _, rep = run_plain(ts, (0.1, 0.1))  # 1/P for P=10
    assert rep.exit_distribution[0] == 1.0
    expected = VGG_TOPOLOGY.segment_flops[0] + VGG_TOPOLOGY.exit_flops[0]
    assert rep.mean_on_device_mflops == pytest.approx(expected, abs=1e-12)


def test_unreachable_lambda_transmits_everything():
    samples = [SampleTrace(id=i, label=0, confidences=(0.5, 0.6, 0.7),
                           predicted=(0, 0, 0)) for i in range(20)]
    ts = TraceSet(VGG_TOPOLOGY, tuple(samples))
    lam = (1.0 - 1e-9, 1.0 - 1e-9)
    _, rep = run_plain(ts, lam)
    assert rep.exit_distribution[-1] == 1.0
    expected = sum(VGG_TOPOLOGY.segment_flops) + sum(VGG_TOPOLOGY.exit_flops)
    assert rep.mean_on_device_mflops == pytest.approx(expected, abs=1e-12)


def test_zero_gamma_matches_plain_plus_predictor_flops_exactly():
    rng = np.random.default_rng(1)
    for _ in range(20):
        ts = random_trace_set(rng, n_samples=rng.integers(5, 60))
        n_early = ts.topology.num_early_exits
        lam = random_lambda(rng, n_early)
        scores = rng.uniform(0.0, 1.0, (len(ts), n_early))
        plain_recs, plain_rep = run_plain(ts, lam)
        pred_recs, pred_rep = run_with_predictor(
            ts, Thresholds(lam, (0.0,) * n_early), scores
        )
        for a, b in zip(plain_recs, pred_recs):
            assert a.exit_taken == b.exit_taken
            assert b.on_device_mflops == a.on_device_mflops + ts.topology.predictor_flops
        assert pred_rep.mean_on_device_mflops == pytest.approx(
            plain_rep.mean_on_device_mflops + ts.topology.predictor_flops, abs=1e-12
        )


def test_all_skip_transmits_everything():
    rng = np.random.default_rng(2)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=40)
    scores = rng.uniform(0.0, 0.999, (40, 2))
    _, rep = run_with_predictor(ts, Thresholds((0.9, 0.9), (1.0, 1.0)), scores)
    assert rep.exit_distribution[-1] == 1.0
    expected = VGG_TOPOLOGY.predictor_flops + sum(VGG_TOPOLOGY.segment_flops)
    assert rep.mean_on_device_mflops == pytest.approx(expected, abs=1e-12)


def test_predictor_run_matches_literal_walk_oracle():
    rng = np.random.default_rng(3)
    ts = random_trace_set(rng, n_samples=200)
    topo = ts.topology
    n_early = topo.num_early_exits
    lam = random_lambda(rng, n_early)
    gamma = random_gamma(rng, n_early)
    scores = rng.uniform(0.0, 1.0, (200, n_early))
    recs, _ = run_with_predictor(ts, Thresholds(lam, gamma), scores)
    for i, rec in enumerate(recs):
        taken, device, computed, transmitted = literal_predictor_walk(
            ts.conf[i], scores[i], lam, gamma, topo
        )
        assert rec.exit_taken == taken
        assert rec.transmitted == transmitted
        assert rec.on_device_mflops == pytest.approx(device, abs=1e-9)
        assert [n for n, f in enumerate(rec.exits_computed) if f] == computed


def test_plain_and_oracle_match_literal_walks():
    rng = np.random.default_rng(4)
    for _ in range(10):
        ts = random_trace_set(rng, n_samples=50)
        lam = random_lambda(rng, ts.topology.num_early_exits)
        plain_recs, _ = run_plain(ts, lam)
        oracle_recs, _ = run_oracle(ts, lam)
        for i in range(50):
            conf = ts.conf[i]
            taken, device, computed, transmitted = literal_plain_walk(conf, lam, ts.topology)
            assert plain_recs[i].exit_taken == taken
            assert plain_recs[i].on_device_mflops == pytest.approx(device, abs=1e-9)
            assert [n for n, f in enumerate(plain_recs[i].exits_computed) if f] == computed
            o_taken, o_device, o_computed, o_tx = literal_oracle_walk(conf, lam, ts.topology)
            assert oracle_recs[i].exit_taken == o_taken
            assert oracle_recs[i].on_device_mflops == pytest.approx(o_device, abs=1e-9)
            assert [n for n, f in enumerate(oracle_recs[i].exits_computed) if f] == o_computed
            assert oracle_recs[i].transmitted == o_tx == transmitted


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), n_samples=st.integers(1, 40), num_exits=st.integers(2, 4),
       gated=st.booleans(), dense=st.booleans())
@example(seed=2, n_samples=40, num_exits=2, gated=True, dense=True)
@example(seed=3, n_samples=40, num_exits=3, gated=True, dense=True)
@example(seed=4, n_samples=40, num_exits=4, gated=True, dense=True)
def test_policy_table_rows_equal_policy_stats(seed, n_samples, num_exits, gated, dense):
    rng = np.random.default_rng(seed)
    ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=n_samples)
    n_early = num_exits - 1
    # Two random vectors, read as two values per exit.
    lam_grid = np.transpose([random_lambda(rng, n_early) for _ in range(2)])
    gamma_grid = np.transpose([random_gamma(rng, n_early) for _ in range(2)]) if gated else None
    scores = rng.uniform(0.0, 1.0, (n_samples, n_early)) if gated else None
    if dense:
        # Values 2**-20 apart, below 2/4096, that end at a sample's
        # confidence (and score): several share a key of the cell counter.
        near = lambda x: np.clip(x + np.arange(-3, 1) * 2.0**-20, 0.0, 1.0).tolist() + [
            np.nextafter(x, 0.0)]
        lam_grid = [near(ts.conf[0, 0]), *lam_grid[1:]]
        if gated:
            gamma_grid = [*gamma_grid[:-1], near(scores[0, -1])]
    table = PolicyTable(ts, lam_grid, gamma_grid, scores)
    # Without accuracy the table prices every row bit for bit as the full
    # one does, and refuses the one query that reads accuracy.
    free = PolicyTable(ts, lam_grid, gamma_grid, scores, accuracy=False)
    assert free.accuracy is None
    with pytest.raises(ValueError, match="holds no accuracy"):
        free.optimum(free.latency_s(3.62e9, 1e5), 0.03)
    for bandwidth in (1e3, 1e5, 1e7):
        latency = table.latency_s(3.62e9, bandwidth)
        assert repr((free.exit_distribution.tolist(), free.on_device_mflops.tolist(),
                     free.latency_s(3.62e9, bandwidth).tolist())) == repr(
            (table.exit_distribution.tolist(), table.on_device_mflops.tolist(), latency.tolist()))
        for i in range(len(table.accuracy)):
            lam, gamma = table.combo(i)
            rep = policy_stats(ts, lam, gamma, scores, Environment(3.62e9, bandwidth, 0.03))
            # repr tells every float apart bit for bit
            assert repr((float(table.accuracy[i]), float(table.on_device_mflops[i]),
                         tuple(table.exit_distribution[i].tolist()),
                         float(latency[i]))) == repr(
                (rep.accuracy, rep.mean_on_device_mflops, rep.exit_distribution,
                 rep.mean_latency_s))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), num_exits=st.integers(2, 4), gated=st.booleans(),
       n_samples=st.sampled_from([1, 255, 256, 257, 515]),
       n_lams=st.integers(1, 2), n_gammas=st.integers(1, 2), repeat=st.booleans())
def test_count_table_matches_literal_walkers(seed, num_exits, gated, n_samples, n_lams,
                                             n_gammas, repeat):
    rng = np.random.default_rng(seed)
    ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=n_samples)
    topo, n_early = ts.topology, num_exits - 1
    scores = rng.choice([0.0, 0.25, 0.5, 1.0], (n_samples, n_early))
    # Values drawn from a few, some equal to a sample's confidence or
    # score, so values tie with samples and exits share values; ``repeat``
    # repeats a value at one exit.
    lam_values = np.concatenate([rng.uniform(0.05, 0.99, 2),
                                 ts.conf[rng.integers(0, n_samples, 2), 0]])
    lam_grid = [rng.choice(lam_values, n_lams).tolist() for _ in range(n_early)]
    gamma_grid = [rng.choice([0.0, 0.25, 0.5, 1.0, rng.uniform()], n_gammas).tolist()
                  for _ in range(n_early)]
    if repeat:
        lam_grid[0].append(lam_grid[0][0])
        gamma_grid[-1].append(gamma_grid[-1][-1])
    table = PolicyTable(ts, lam_grid, gamma_grid if gated else None, scores if gated else None)
    assert len(table.accuracy) == math.prod(map(len, lam_grid + gamma_grid if gated else lam_grid))
    for i in range(len(table.accuracy)):
        lam, gamma = table.combo(i)
        walks = [literal_predictor_walk(ts.conf[s], scores[s], lam, gamma, topo) if gated
                 else literal_plain_walk(ts.conf[s], lam, topo) for s in range(n_samples)]
        correct = sum(ts.pred[s][taken - 1] == ts.label[s]
                      for s, (taken, *_) in enumerate(walks))
        assert table.accuracy[i] == correct / n_samples
        ends = np.bincount([taken - 1 for taken, *_ in walks], minlength=num_exits)
        assert table.exit_distribution[i].tolist() == (ends / n_samples).tolist()
        assert table.on_device_mflops[i] == pytest.approx(
            np.mean([device for _, device, _, _ in walks]), rel=1e-12, abs=0)
        for bandwidth in (1e3, 1e5, 1e7):
            env = Environment(3.62e9, bandwidth, 0.03)
            assert table.latency_s(3.62e9, bandwidth)[i] == pytest.approx(np.mean(
                [literal_latency(device, tx, topo, env) for _, device, _, tx in walks]),
                rel=1e-12, abs=0)


def test_gated_table_build_peaks_below_two_megabytes():
    # The build keeps per-sample arrays only until the grid-cell histogram
    # is made, and no (samples x combinations) array at any point; pricing
    # 16 bandwidths adds only their (bandwidths x combinations) latencies.
    rng = np.random.default_rng(15)
    n = 8192
    ts = TraceSet.from_columns(VGG_TOPOLOGY, np.arange(n), rng.integers(0, 10, n),
                               rng.uniform(0.1, 0.999, (n, 3)), rng.integers(0, 10, (n, 3)))
    scores = rng.uniform(0.0, 1.0, (n, 2))
    lam_grid = [np.linspace(0.2, 0.9, 8)] * 2
    gamma_grid = [np.linspace(0.0, 1.0, 5)] * 2
    tracemalloc.start()
    try:
        latency = PolicyTable(ts, lam_grid, gamma_grid, scores).latency_s(
            3.62e9, np.geomspace(1e4, 1e8, 16)[:, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert latency.shape == (16, 1600)
    assert peak < 2 * 2**20


def test_four_exit_table_build_peaks_below_24_mib():
    # 1,000 samples, N = 4, 9 lambda and 5 gamma values per exit: the
    # (5, 10, 6, 10, 6, 10, 6) histogram is 8.6 MB in int64 and in float64.
    # The suffix sums hold two such arrays at once, never three.
    rng = np.random.default_rng(19)
    ts = random_trace_set(rng, random_topology(rng, num_exits=4), n_samples=1000)
    scores = rng.uniform(0.0, 1.0, (1000, 3))
    tracemalloc.start()
    try:
        table = PolicyTable(ts, [np.linspace(0.1, 0.9, 9)] * 3, [np.linspace(0.0, 1.0, 5)] * 3,
                            scores)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table.accuracy) == 9**3 * 5**3
    assert peak < 24 * 2**20


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), num_exits=st.integers(2, 4), gated=st.booleans(),
       accuracy=st.booleans(), n_samples=st.integers(1, 60), repeat=st.booleans())
@example(seed=5, num_exits=4, gated=True, accuracy=True, n_samples=60, repeat=True)
@example(seed=6, num_exits=4, gated=False, accuracy=False, n_samples=1, repeat=False)
def test_suffix_histogram_counts_the_samples_at_or_above_each_cell(seed, num_exits, gated,
                                                                    accuracy, n_samples, repeat):
    # Entry [g, u_0, v_0, u_1, v_1, ...] is the number of samples of group g
    # with j_n >= u_n and k_n >= v_n at every early exit n, counted here one
    # sample at a time.  Grids hold one to three values drawn from a pool
    # holding sample values, so values repeat and tie samples; a one-value
    # grid is an axis of 2 cells.
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, num_exits=num_exits, num_classes=2)
    ts = random_trace_set(rng, topo, n_samples=n_samples)
    n_early = num_exits - 1
    scores = rng.choice([0.0, 0.5, 1.0, rng.uniform()], (n_samples, n_early))
    lam_pool = [0.3, 0.6, *ts.conf[rng.integers(0, n_samples, 2), 0]]
    lam_grid = [rng.choice(lam_pool, rng.integers(1, 4)) for _ in range(n_early)]
    gamma_grid = [rng.choice([0.0, 0.5, 1.0, scores[0, n]], rng.integers(1, 4))
                  for n in range(n_early)]
    if repeat:
        lam_grid[0] = np.append(lam_grid[0], lam_grid[0][0])
        gamma_grid[-1] = np.append(gamma_grid[-1], gamma_grid[-1][-1])
    lam_grid, gamma_grid = [np.sort(v) for v in lam_grid], [np.sort(v) for v in gamma_grid]
    hist = _suffix_histogram(ts, lam_grid, gamma_grid if gated else None,
                             scores if gated else None, accuracy)
    # Every sample, then those right at the server, then at each early
    # exit, the last first.
    groups = [np.ones(n_samples, dtype=bool)]
    if accuracy:
        groups += [ts.pred[:, e] == ts.label for e in range(n_early, -1, -1)]
    shape = [len(groups)]
    for n in range(n_early):
        shape += [len(lam_grid[n]) + 1, len(gamma_grid[n]) + 1 if gated else 1]
    expected = np.zeros(shape, dtype=np.int64)
    for s in range(n_samples):
        box = ()
        for n in range(n_early):
            j = sum(a <= ts.conf[s, n] for a in lam_grid[n])
            k = sum(b <= scores[s, n] for b in gamma_grid[n]) if gated else 0
            box += (slice(0, j + 1), slice(0, k + 1))
        for g, member in enumerate(groups):
            expected[(g, *box)] += member[s]
    assert hist.dtype == np.int64
    assert hist.shape == expected.shape
    assert np.array_equal(hist, expected)


def test_table_counts_are_int64_and_conserve_every_sample():
    # The counts are int64 differences of histogram slices that account
    # for every sample of every combination.
    rng = np.random.default_rng(21)
    n = 773
    ts = random_trace_set(rng, random_topology(rng, num_exits=4), n_samples=n)
    lam_grid = [np.sort(rng.uniform(0.1, 0.99, 3)) for _ in range(3)]
    gamma_grid = [np.array([0.0, 0.5, 1.0])] * 3
    scores = rng.uniform(0.0, 1.0, (n, 3))
    counts = _table_counts(ts, lam_grid, gamma_grid, scores)
    assert all(c.dtype == np.int64 for c in counts)
    reach, charged, term, tx, correct = counts
    assert len(reach) == 27 * 27
    assert (reach[:, 0] == n).all()
    assert (term.sum(axis=1) + tx == n).all()
    assert (charged <= reach).all()
    assert (correct <= n).all()
    # Without accuracy: no correct counts, and the same int64 counts else.
    free = _table_counts(ts, lam_grid, gamma_grid, scores, accuracy=False)
    assert free.correct is None
    for field, a, b in zip(counts._fields[:-1], counts, free):
        assert b.dtype == np.int64 and np.array_equal(a, b), field


_UNIT = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data(), dense=st.booleans())
def test_cell_counter_equals_searchsorted(data, dense):
    # Grids from a small pool of values, repeats kept, or dense ones (gaps
    # of multiples of 2**-20, below 2/4096), so that entries share a key;
    # values at every entry, its neighbours, 0, -0 and 1.
    if dense:
        base = data.draw(_UNIT)
        steps = data.draw(st.lists(st.integers(-40, 40), min_size=1, max_size=12))
        grid = np.clip(base + np.array(steps) * 2.0**-20, 0.0, 1.0)
    else:
        pool = data.draw(st.lists(_UNIT, min_size=1, max_size=4))
        grid = np.array(data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12)))
    grid = np.sort(grid)
    values = np.concatenate([grid, np.nextafter(grid, -1.0), np.nextafter(grid, 2.0),
                             [0.0, -0.0, 1.0], data.draw(st.lists(_UNIT, max_size=8))])
    values = values[(values >= 0.0) & (values <= 1.0)]
    cells = _cell_counter(grid)(values)
    assert cells.dtype == np.intp
    assert cells.tolist() == np.searchsorted(grid, values, "right").tolist()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), num_exits=st.integers(2, 4), gated=st.booleans())
def test_optimum_of_a_latency_matrix_equals_optimum_per_row(seed, num_exits, gated):
    # Repeated grid values repeat combinations, so accuracies tie.  The
    # budgets run from none feasible at any bandwidth, through the lowest
    # bandwidth alone infeasible and a budget equal to a latency, to all.
    rng = np.random.default_rng(seed)
    n, n_early = int(rng.integers(1, 60)), num_exits - 1
    ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=n)
    lam_grid = [rng.choice(rng.uniform(0.05, 0.99, 2), 3) for _ in range(n_early)]
    gamma_grid = [rng.choice([0.0, 0.5, 1.0], 2) for _ in range(n_early)] if gated else None
    scores = rng.uniform(0.0, 1.0, (n, n_early)) if gated else None
    table = PolicyTable(ts, lam_grid, gamma_grid, scores)
    latency = table.latency_s(3.62e9, np.geomspace(1e2, 1e8, 7)[:, None])
    lows = latency.min(axis=1)
    for budget in (lows.min() / 2, (lows[0] + lows[-1]) / 2, lows[0], float(np.median(latency)),
                   latency.max()):
        best = table.optimum(latency, budget)
        assert best.shape == (7,)
        assert best.tolist() == [table.optimum(row, budget) for row in latency]
        # Highest accuracy within budget, then lowest latency, then first.
        assert best.tolist() == [min(range(len(row)), key=lambda i: (
            -table.accuracy[i] if row[i] <= budget else np.inf, row[i], i)) for row in latency]
    # An explicit row: every feasible combination reads accuracy 0, beside
    # infeasible ones.  No sample is right at an early exit, so lambda 0.01
    # (gamma 0) at every exit ends all at the first, at accuracy 0, and
    # lambda 1 - 1e-6 sends all to the server, at accuracy 1.
    pred = np.where(np.arange(num_exits) < n_early, ts.label[:, None] + 1, ts.label[:, None])
    wrong = TraceSet.from_columns(ts.topology, ts.ids, ts.label, ts.conf,
                                  pred % ts.topology.num_classes)
    zeros = PolicyTable(wrong, [(0.01, 1 - 1e-6)] * n_early,
                        [(0.0, 1.0)] * n_early if gated else None, scores)
    zero = zeros.accuracy == 0
    assert zero[0] and not zero.all()
    row = np.where(zero, rng.uniform(0.5, 1.0, len(zero)), rng.uniform(1.5, 2.0, len(zero)))
    assert zeros.optimum(row, 1.0) == min(np.flatnonzero(zero), key=lambda i: (row[i], i))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), num_exits=st.integers(2, 4), gated=st.booleans())
def test_table_counts_do_not_depend_on_sample_order(seed, num_exits, gated):
    # A histogram forgets the order of the samples it counts.
    rng = np.random.default_rng(seed)
    n, n_early = int(rng.integers(1, 300)), num_exits - 1
    ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=n)
    scores = rng.uniform(0.0, 1.0, (n, n_early)) if gated else None
    lam_grid = [np.sort(rng.uniform(0.05, 0.99, rng.integers(1, 4))) for _ in range(n_early)]
    gamma_grid = ([np.sort(rng.uniform(0.0, 1.0, rng.integers(1, 4))) for _ in range(n_early)]
                  if gated else None)
    order = rng.permutation(n)
    counts = _table_counts(ts, lam_grid, gamma_grid, scores)
    shuffled = _table_counts(ts.subset(order), lam_grid, gamma_grid,
                             scores[order] if gated else None)
    for field, a, b in zip(counts._fields, counts, shuffled):
        assert a.dtype == b.dtype == np.int64, field
        assert np.array_equal(a, b), field


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), num_exits=st.integers(2, 4), gated=st.booleans())
def test_table_rows_equal_policy_stats_when_every_value_ties_a_sample(seed, num_exits, gated):
    # Every lambda value is some sample's confidence and every gamma value
    # some sample's score at that exit, and scores of exactly 0 and 1 meet
    # gamma values 0 and 1: each row sits on the weak inequalities' edge.
    rng = np.random.default_rng(seed)
    n, n_early = int(rng.integers(2, 40)), num_exits - 1
    ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=n)
    scores = rng.choice([0.0, 1.0, 0.5, rng.uniform()], (n, n_early))
    scores[0], scores[1] = 0.0, 1.0
    lam_grid = [ts.conf[rng.integers(0, n, 2), e] for e in range(n_early)]
    gamma_grid = [np.concatenate([[0.0, 1.0], scores[rng.integers(0, n, 1), e]])
                  for e in range(n_early)]
    table = PolicyTable(ts, lam_grid, gamma_grid if gated else None, scores if gated else None)
    for bandwidth in (1e4, 1e7):
        latency = table.latency_s(3.62e9, bandwidth)
        for i in range(len(table.accuracy)):
            lam, gamma = table.combo(i)
            rep = policy_stats(ts, lam, gamma, scores if gated else None,
                               Environment(3.62e9, bandwidth, 0.03))
            assert repr((float(table.accuracy[i]), float(table.on_device_mflops[i]),
                         tuple(table.exit_distribution[i].tolist()),
                         float(latency[i]))) == repr(
                (rep.accuracy, rep.mean_on_device_mflops, rep.exit_distribution,
                 rep.mean_latency_s))


@pytest.mark.parametrize("gated", [False, True])
def test_combos_enumerate_the_product_of_sorted_values_lambda_major(gated):
    # combo(i) and combos() read the rows of the lambda-major product of
    # each exit's sorted values, repeats kept, and no other index.
    rng = np.random.default_rng(17)
    for num_exits in (2, 3, 4):
        n_early = num_exits - 1
        ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=10)
        lam_grid = [(0.9, 0.2, 0.9), (0.7, 0.3), (0.5,)][:n_early]
        gamma_grid = [(0.5, 0.25, 0.5), (1.0, 0.0), (0.75,)][:n_early] if gated else None
        table = PolicyTable(ts, lam_grid, gamma_grid, rng.uniform(0.0, 1.0, (10, n_early)))
        lams = list(itertools.product(*map(sorted, lam_grid)))
        gammas = list(itertools.product(*map(sorted, gamma_grid))) if gated else [None]
        combos = list(itertools.product(lams, gammas))
        assert len(table.accuracy) == len(combos) == math.prod(
            map(len, lam_grid + gamma_grid if gated else lam_grid))
        assert [table.combo(i) for i in range(len(combos))] == list(table.combos()) == combos
        for i in (len(combos), -1):
            with pytest.raises(IndexError, match="not a row"):
                table.combo(i)


def test_four_exit_default_grid_rows_equal_policy_stats():
    # The default lambda and gamma grids at every one of three early exits:
    # 8**3 * 5**3 = 64,000 combinations.
    rng = np.random.default_rng(18)
    ts = random_trace_set(rng, random_topology(rng, num_exits=4), n_samples=1000)
    scores = rng.uniform(0.0, 1.0, (1000, 3))
    bandwidths = (1e5, 1e6, 1e8)
    table = PolicyTable(ts, [np.linspace(0.2, 0.9, 8)] * 3, [np.linspace(0.0, 1.0, 5)] * 3,
                        scores)
    # One query prices every bandwidth: a column of them broadcasts.
    latency = table.latency_s(3.62e9, np.array(bandwidths)[:, None])
    n_combos = 8**3 * 5**3
    assert latency.shape == (3, n_combos)
    for i in [0, n_combos - 1, *rng.integers(0, n_combos, 20).tolist()]:
        lam, gamma = table.combo(i)
        for b, bandwidth in enumerate(bandwidths):
            rep = policy_stats(ts, lam, gamma, scores, Environment(3.62e9, bandwidth, 0.03))
            assert repr((float(table.accuracy[i]), float(table.on_device_mflops[i]),
                         tuple(table.exit_distribution[i].tolist()),
                         float(latency[b, i]))) == repr(
                (rep.accuracy, rep.mean_on_device_mflops, rep.exit_distribution,
                 rep.mean_latency_s))


def test_oracle_equals_plain_when_everything_exits_first():
    rng = np.random.default_rng(5)
    samples = [SampleTrace(id=i, label=0, confidences=(0.95, 0.5, 0.5),
                           predicted=(0, 1, 1)) for i in range(10)]
    ts = TraceSet(VGG_TOPOLOGY, tuple(samples))
    _, plain = run_plain(ts, (0.9, 0.9))
    _, oracle = run_oracle(ts, (0.9, 0.9))
    assert oracle.mean_on_device_mflops == plain.mean_on_device_mflops


def test_oracle_never_costs_more_than_plain():
    rng = np.random.default_rng(6)
    for _ in range(20):
        ts = random_trace_set(rng, n_samples=30)
        lam = random_lambda(rng, ts.topology.num_early_exits)
        _, plain = run_plain(ts, lam)
        _, oracle = run_oracle(ts, lam)
        assert oracle.mean_on_device_mflops <= plain.mean_on_device_mflops + 1e-12


def test_latency_of_golden_value():
    env = Environment(compute_speed=3.62e9, bandwidth=1e6, latency_budget=0.03)
    ts = golden_fraction_traces()
    recs, rep = run_plain(ts, (0.9, 0.9), env)
    not_tx = next(r for r in recs if not r.transmitted)
    manual = not_tx.on_device_mflops * 1e6 / 3.62e9
    assert latency_of(not_tx, ts.topology, env) == pytest.approx(manual, abs=1e-15)
    # 42.44 MFLOPs at 3.62 GFLOPS is 11.72 ms
    synthetic = not_tx.__class__(
        sample_id=0, exit_taken=1, exits_computed=(True, False),
        on_device_mflops=42.44, transmitted=False, transmitted_bits=0,
        correct=True, latency_s=0.0,
    )
    assert latency_of(synthetic, ts.topology, env) * 1e3 == pytest.approx(11.72, abs=0.01)


def test_latency_zero_bits_is_pure_compute():
    env = Environment(compute_speed=1e9, bandwidth=10.0, latency_budget=1.0)
    rec_cls = run_plain(golden_fraction_traces(), (0.9, 0.9))[0][0].__class__
    rec = rec_cls(sample_id=0, exit_taken=1, exits_computed=(True, False),
                  on_device_mflops=5.0, transmitted=False, transmitted_bits=0,
                  correct=True, latency_s=0.0)
    assert latency_of(rec, VGG_TOPOLOGY, env) == pytest.approx(5e6 / 1e9, abs=1e-15)


def test_huge_bandwidth_approaches_compute_latency():
    env = Environment(compute_speed=3.62e9, bandwidth=1e12, latency_budget=1.0)
    ts = golden_fraction_traces()
    recs, _ = run_plain(ts, (0.9, 0.9), env)
    tx = next(r for r in recs if r.transmitted)
    compute_only = tx.on_device_mflops * 1e6 / env.compute_speed
    assert abs(tx.latency_s - compute_only) < 1e-6


def test_latency_monotone_in_bandwidth_and_compute_speed():
    ts = golden_fraction_traces()
    lam = (0.9, 0.9)
    lat = []
    for bw in (1e5, 1e6, 1e7):
        _, rep = run_plain(ts, lam, Environment(3.62e9, bw, 0.03))
        lat.append(rep.mean_latency_s)
    assert lat[0] >= lat[1] >= lat[2]
    lat = []
    for speed in (1e9, 4e9, 1e10):
        _, rep = run_plain(ts, lam, Environment(speed, 1e6, 0.03))
        lat.append(rep.mean_latency_s)
    assert lat[0] >= lat[1] >= lat[2]


def test_exit_distribution_and_accuracy_bookkeeping():
    rng = np.random.default_rng(7)
    ts = random_trace_set(rng, n_samples=77)
    lam = random_lambda(rng, ts.topology.num_early_exits)
    recs, rep = run_plain(ts, lam)
    assert sum(rep.exit_distribution) == pytest.approx(1.0, abs=1e-9)
    manual_acc = np.mean([
        ts.pred[i][recs[i].exit_taken - 1] == ts.label[i]
        for i in range(len(recs))
    ])
    assert rep.accuracy == pytest.approx(manual_acc, abs=1e-12)
    for rec in recs:
        assert (rec.exit_taken == ts.topology.num_exits) == rec.transmitted
        assert rec.on_device_mflops > 0
        for n, flag in enumerate(rec.exits_computed):
            if not flag:
                assert rec.exit_taken != n + 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16), bump=st.integers(0, 3), delta=st.floats(0.05, 0.5))
def test_raising_gamma_pushes_samples_deeper(seed, bump, delta):
    rng = np.random.default_rng(seed)
    topo = random_topology(rng, num_exits=4)
    ts = random_trace_set(rng, topo, n_samples=40)
    lam = random_lambda(rng, 3)
    gamma = list(random_gamma(rng, 3))
    scores = rng.uniform(0.0, 1.0, (40, 3))
    n = bump % 3
    _, before = run_with_predictor(ts, Thresholds(lam, tuple(gamma)), scores)
    gamma[n] = min(1.0, gamma[n] + delta)
    _, after = run_with_predictor(ts, Thresholds(lam, tuple(gamma)), scores)
    deeper_before = sum(before.exit_distribution[n + 1:])
    deeper_after = sum(after.exit_distribution[n + 1:])
    assert deeper_after >= deeper_before - 1e-12


def test_policy_stats_agrees_with_run_functions():
    rng = np.random.default_rng(8)
    ts = random_trace_set(rng, n_samples=60)
    n_early = ts.topology.num_early_exits
    lam = random_lambda(rng, n_early)
    gamma = random_gamma(rng, n_early)
    scores = rng.uniform(0.0, 1.0, (60, n_early))
    env = Environment(3.62e9, 1e6, 0.03)
    assert policy_stats(ts, lam, env=env) == run_plain(ts, lam, env)[1]
    assert policy_stats(ts, lam, gamma, scores, env) == run_with_predictor(
        ts, Thresholds(lam, gamma), scores, env)[1]


def test_policy_stats_oracle_mode_equals_run_oracle():
    rng = np.random.default_rng(9)
    ts = random_trace_set(rng, n_samples=60)
    n_early = ts.topology.num_early_exits
    lam = random_lambda(rng, n_early)
    for env in (None, Environment(3.62e9, 1e6, 0.03)):
        assert repr(policy_stats(ts, lam, env=env, oracle=True)) == repr(
            run_oracle(ts, lam, env)[1])
    with pytest.raises(ValueError, match="oracle routing takes no gamma"):
        policy_stats(ts, lam, random_gamma(rng, n_early), np.zeros((60, n_early)), oracle=True)


def test_threshold_length_mismatch_errors():
    rng = np.random.default_rng(10)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=5)
    with pytest.raises(ValueError, match="length"):
        run_plain(ts, (0.9,))
    with pytest.raises(ValueError, match="length"):
        run_oracle(ts, (0.9, 0.9, 0.9))


def test_predictor_latency_matches_literal_model():
    rng = np.random.default_rng(11)
    ts = random_trace_set(rng, n_samples=30)
    topo = ts.topology
    n_early = topo.num_early_exits
    lam = random_lambda(rng, n_early)
    gamma = random_gamma(rng, n_early)
    scores = rng.uniform(0.0, 1.0, (30, n_early))
    env = Environment(2.5e9, 3e5, 0.03)
    recs, rep = run_with_predictor(ts, Thresholds(lam, gamma), scores, env)
    for i, rec in enumerate(recs):
        _, device, _, tx = literal_predictor_walk(
            ts.conf[i], scores[i], lam, gamma, topo)
        assert rec.latency_s == pytest.approx(
            literal_latency(device, tx, topo, env), abs=1e-12)
    assert rep.mean_latency_s == pytest.approx(
        np.mean([r.latency_s for r in recs]), abs=1e-15)


def test_wrong_length_gamma_rejected_by_policy_stats_and_table():
    rng = np.random.default_rng(12)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=8)
    scores = rng.uniform(0.0, 1.0, (8, 2))
    for gamma in ((0.3,), (0.3, 0.3, 0.3)):
        with pytest.raises(ValueError, match="gamma must have length 2"):
            policy_stats(ts, (0.9, 0.9), gamma, scores)
        with pytest.raises(ValueError, match="gamma_grid need 2 value lists each"):
            PolicyTable(ts, [(0.9,), (0.9,)], [(0.3, 0.5)] * len(gamma), scores)


@pytest.mark.parametrize("bad", [(0.9,), (0.5, 0.6, 0.7), ((0.9,), (0.9,)), (0.9, math.nan),
                                 (0.9, 1.5), (-0.1, 0.5), "0.5"],
                         ids=["short", "long", "nested", "nan", "above", "negative", "string"])
def test_a_bad_vector_in_a_threshold_list_raises_its_own_check(bad):
    rng = np.random.default_rng(16)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=8)
    scores = rng.uniform(0.0, 1.0, (8, 2))
    env = Environment(3.62e9, 1e6, 0.03)
    cases = [(check_lambda, 2, lambda: policy_stats(ts, bad)),
             (check_lambda, 2, lambda: run_oracle(ts, bad)),
             (check_gamma, 2, lambda: policy_stats(ts, (0.9, 0.9), bad, scores, env))]
    if bad not in ((0.9,), (0.5, 0.6, 0.7)):  # any nonempty length is a good value list
        # A table checks each exit's value list as a vector of any length.
        cases += [(check_lambda, None, lambda: PolicyTable(ts, [(0.5, 0.9), bad])),
                  (check_gamma, None, lambda: PolicyTable(ts, [(0.5,), (0.5,)], [bad, (0.0, 1.0)],
                                                          scores))]
    for check, n_early, tabulate in cases:
        with pytest.raises(ValueError) as want:
            check(bad, n_early)
        with pytest.raises(ValueError) as got:
            tabulate()
        assert str(got.value) == str(want.value)


def test_non_finite_scores_and_thresholds_rejected():
    rng = np.random.default_rng(13)
    ts = random_trace_set(rng, VGG_TOPOLOGY, n_samples=8)
    scores = rng.uniform(0.0, 1.0, (8, 2))
    scores[3, 1] = np.nan
    nan_score = r"^scores\[3\]\[1\] must be a finite real number, got nan$"
    with pytest.raises(ValueError, match=nan_score):
        run_with_predictor(ts, Thresholds((0.9, 0.9), (0.5, 0.5)), scores)
    with pytest.raises(ValueError, match=nan_score):
        policy_stats(ts, (0.9, 0.9), (0.5, 0.5), scores)
    with pytest.raises(ValueError, match=nan_score):
        PolicyTable(ts, [(0.9,), (0.9,)], [(0.5,), (0.5,)], scores)
    with pytest.raises(ValueError, match=r"^lambda\[1\] must be a finite real number, got nan$"):
        run_plain(ts, (0.9, math.nan))
    with pytest.raises(ValueError, match=r"^gamma\[1\] must be a finite real number, got nan$"):
        policy_stats(ts, (0.9, 0.9), (0.5, math.nan), rng.uniform(0.0, 1.0, (8, 2)))


@pytest.mark.parametrize("scores, message", [
    ({0: (0.5, 0.5)}, r"^scores must be a list of rows of numbers, got \{0: "),
    ([[0.5, 0.5]] * 3 + [[0.5]],
     r"^scores\[3\] must be a list of numbers of length 2, got \[0.5\]$"),
    ("0.5", r"^scores must be a list of rows of numbers, got '0.5'$"),
], ids=["mapping", "ragged", "string"])
def test_non_numeric_scores_name_scores_and_shape(scores, message):
    ts = random_trace_set(np.random.default_rng(14), VGG_TOPOLOGY, n_samples=4)
    with pytest.raises(ValueError, match=message):
        run_with_predictor(ts, Thresholds((0.9, 0.9), (0.5, 0.5)), scores)
    with pytest.raises(ValueError, match=message):
        policy_stats(ts, (0.9, 0.9), (0.5, 0.5), scores)


@pytest.mark.parametrize("field", ["compute_speed", "bandwidth", "latency_budget"])
@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0, True])
def test_environment_rejects_non_finite_and_non_positive(field, value):
    args = {"compute_speed": 3.62e9, "bandwidth": 1e6, "latency_budget": 0.03, field: value}
    with pytest.raises(ValueError, match=field):
        Environment(**args)
    if field == "bandwidth":  # a sweep checks its bandwidths under the same check
        ts = random_trace_set(np.random.default_rng(15), VGG_TOPOLOGY, n_samples=4)
        with pytest.raises(ValueError, match=r"^bandwidths\[1\] must "):
            sweep_bandwidths(ts, np.full((4, 2), 0.5), Environment(3.62e9, 1e6, 0.03),
                             [1e6, value], [0.5], [0.0])


def plus_predictor(recs, report, topo, env):
    """The records and report of ``recs`` with the predictor charged to each
    sample.  The report's mean device MFLOPs shift by the predictor's; its
    total MFLOPs and latency follow by the count formula from the shares."""
    shifted = []
    for rec in recs:
        rec = rec._replace(on_device_mflops=rec.on_device_mflops + topo.predictor_flops)
        shifted.append(rec._replace(latency_s=latency_of(rec, topo, env)))
    device = report.mean_on_device_mflops + topo.predictor_flops
    tx_share = report.exit_distribution[-1]
    latency = device * 1e6 / env.compute_speed + tx_share * topo.transmitted_bits / env.bandwidth
    return shifted, AggregateReport(
        accuracy=report.accuracy,
        mean_on_device_mflops=device,
        mean_total_mflops=device + tx_share * topo.server_flops,
        mean_latency_s=latency,
        exit_distribution=report.exit_distribution,
        budget_satisfied=latency <= env.latency_budget,
    )


identity_cases = dict(
    seed=st.integers(0, 2**16),
    n_samples=st.integers(1, 40),
    num_exits=st.integers(2, 4),
    bandwidth=st.sampled_from([1e3, 1e5, 1e7]),
)


@settings(max_examples=40, deadline=None)
@given(**identity_cases)
def test_zero_gamma_is_plain_plus_predictor_flops(seed, n_samples, num_exits, bandwidth):
    rng = np.random.default_rng(seed)
    ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=n_samples)
    topo, n_early = ts.topology, num_exits - 1
    lam = random_lambda(rng, n_early)
    scores = rng.uniform(0.0, 1.0, (n_samples, n_early))
    env = Environment(3.62e9, bandwidth, 0.03)
    expected = plus_predictor(*run_plain(ts, lam, env), topo, env)
    gamma = (0.0,) * n_early
    assert run_with_predictor(ts, Thresholds(lam, gamma), scores, env) == expected
    assert policy_stats(ts, lam, gamma, scores, env) == expected[1]


@settings(max_examples=40, deadline=None)
@given(gamma=st.floats(0.0, 1.0, exclude_min=True), **identity_cases)
def test_perfect_scores_are_oracle_plus_predictor_flops(gamma, seed, n_samples, num_exits,
                                                        bandwidth):
    rng = np.random.default_rng(seed)
    ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=n_samples)
    topo, n_early = ts.topology, num_exits - 1
    lam = random_lambda(rng, n_early)
    scores = make_labels(ts, lam)
    env = Environment(3.62e9, bandwidth, 0.03)
    expected = plus_predictor(*run_oracle(ts, lam, env), topo, env)
    gamma = (gamma,) * n_early
    assert run_with_predictor(ts, Thresholds(lam, gamma), scores, env) == expected
    assert policy_stats(ts, lam, gamma, scores, env) == expected[1]


@settings(max_examples=60, deadline=None)
@given(policy=st.sampled_from(["plain", "predictor", "oracle"]), priced=st.booleans(),
       **identity_cases)
def test_a_record_is_its_one_sample_report(policy, priced, seed, n_samples, num_exits,
                                           bandwidth):
    rng = np.random.default_rng(seed)
    ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=n_samples)
    topo, n_early = ts.topology, num_exits - 1
    lam, gamma = random_lambda(rng, n_early), random_gamma(rng, n_early)
    scores = rng.uniform(0.0, 1.0, (n_samples, n_early))
    env = Environment(3.62e9, bandwidth, 0.03) if priced else None
    if policy == "plain":
        recs, _ = run_plain(ts, lam, env)
    elif policy == "predictor":
        recs, _ = run_with_predictor(ts, Thresholds(lam, gamma), scores, env)
    else:
        recs, _ = run_oracle(ts, lam, env)
    for i, rec in enumerate(recs):
        one = (policy_stats(ts.subset([i]), lam, gamma, scores[i:i + 1], env)
               if policy == "predictor" else
               policy_stats(ts.subset([i]), lam, env=env, oracle=policy == "oracle"))
        assert repr(rec.on_device_mflops) == repr(one.mean_on_device_mflops)
        assert repr(rec.latency_s) == repr(one.mean_latency_s)
        taken, _, computed, transmitted = (
            literal_plain_walk(ts.conf[i], lam, topo) if policy == "plain" else
            literal_predictor_walk(ts.conf[i], scores[i], lam, gamma, topo)
            if policy == "predictor" else literal_oracle_walk(ts.conf[i], lam, topo))
        assert rec.exit_taken == taken
        assert [n for n, f in enumerate(rec.exits_computed) if f] == computed
        assert rec.transmitted == transmitted
        assert rec.correct == (ts.pred[i, taken - 1] == ts.label[i])


# 70 exits: more early exits than one int64 code has bits.
@pytest.mark.parametrize("num_exits, n_samples", [(2, 30), (3, 30), (4, 30), (70, 6)])
@pytest.mark.parametrize("priced", [False, True])
@pytest.mark.parametrize("policy", ["plain", "predictor", "oracle"])
def test_records_equal_literal_records_field_by_field(policy, priced, num_exits, n_samples):
    rng = np.random.default_rng(num_exits)
    ts = random_trace_set(rng, random_topology(rng, num_exits=num_exits), n_samples=n_samples)
    topo, n_early = ts.topology, num_exits - 1
    # Near-certain thresholds walk the 70-exit samples deep, through varied gates.
    lam = tuple(rng.uniform(0.05 if n_early < 62 else 0.99, 0.999, n_early).tolist())
    gamma = random_gamma(rng, n_early)
    scores = rng.uniform(0.0, 1.0, (n_samples, n_early))
    env = Environment(3.62e9, 1e5, 0.03) if priced else None
    if policy == "plain":
        recs, _ = run_plain(ts, lam, env)
    elif policy == "predictor":
        recs, _ = run_with_predictor(ts, Thresholds(lam, gamma), scores, env)
    else:
        recs, _ = run_oracle(ts, lam, env)
    assert len(recs) == n_samples
    for i, rec in enumerate(recs):
        one = (policy_stats(ts.subset([i]), lam, gamma, scores[i:i + 1], env)
               if policy == "predictor" else
               policy_stats(ts.subset([i]), lam, env=env, oracle=policy == "oracle"))
        taken, _, computed, transmitted = (
            literal_plain_walk(ts.conf[i], lam, topo) if policy == "plain" else
            literal_predictor_walk(ts.conf[i], scores[i], lam, gamma, topo)
            if policy == "predictor" else literal_oracle_walk(ts.conf[i], lam, topo))
        literal = DecisionRecord(
            sample_id=int(ts.ids[i]), exit_taken=taken,
            exits_computed=tuple(n in computed for n in range(n_early)),
            on_device_mflops=one.mean_on_device_mflops, transmitted=transmitted,
            transmitted_bits=topo.transmitted_bits if transmitted else 0,
            correct=bool(ts.pred[i, taken - 1] == ts.label[i]),
            latency_s=one.mean_latency_s)
        assert rec == literal
        assert repr(rec) == repr(literal)
        assert type(rec) is DecisionRecord
        assert all(type(flag) is bool for flag in rec.exits_computed)
        for name, kind in (("sample_id", int), ("exit_taken", int), ("transmitted_bits", int),
                           ("transmitted", bool), ("correct", bool),
                           ("on_device_mflops", float), ("latency_s", float)):
            assert type(getattr(rec, name)) is kind, name
