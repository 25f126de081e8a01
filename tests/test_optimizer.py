import itertools
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exitsim import engine
from exitsim.engine import Environment, policy_stats
from exitsim.optimizer import (
    PolicyPoint,
    ThresholdRegressor,
    adapt,
    fit_regressors,
    grid_search,
    load_policy_points,
    load_regressors,
    save_policy_points,
    save_regressors,
    sweep_bandwidths,
)
from exitsim.trace import SampleTrace, TraceSet

from helpers import (
    assert_min_latency_fallback,
    literal_latency,
    literal_predictor_walk,
    random_trace_set,
    small_topology_like,
)


def brute_force_best(ts, scores, env, lam_vals, gam_vals):
    """Independent nested-loop search using the literal per-sample walker."""
    topo = ts.topology
    n_early = topo.num_early_exits
    samples = tuple(ts.samples)  # built once, not once per combination
    best = None
    for lam in itertools.product(sorted(lam_vals), repeat=n_early):
        for gam in itertools.product(sorted(gam_vals), repeat=n_early):
            correct = []
            lats = []
            for i, s in enumerate(samples):
                taken, device, _, tx = literal_predictor_walk(
                    s.confidences, scores[i], lam, gam, topo)
                correct.append(s.predicted[taken - 1] == s.label)
                lats.append(literal_latency(device, tx, topo, env))
            acc = float(np.mean(correct))
            lat = float(np.mean(lats))
            if lat > env.latency_budget:
                continue
            if best is None or acc > best[2] or (acc == best[2] and lat < best[3]):
                best = (lam, gam, acc, lat)
    return best


def search_setup(seed, n_samples=40, budget=0.03, bandwidth=1e5):
    rng = np.random.default_rng(seed)
    ts = random_trace_set(rng, n_samples=n_samples)
    scores = rng.uniform(0.0, 1.0, (n_samples, ts.topology.num_early_exits))
    env = Environment(compute_speed=3.62e9, bandwidth=bandwidth, latency_budget=budget)
    return ts, scores, env


def test_unconstrained_budget_returns_brute_force_maximum():
    ts, scores, env = search_setup(0, budget=1e9)
    lam_vals = [0.2, 0.4, 0.5, 0.7, 0.9]
    gam_vals = [0.0, 0.25, 0.5, 0.75, 1.0]
    best, frontier = grid_search(ts, scores, env, lam_vals, gam_vals)
    oracle = brute_force_best(ts, scores, env, lam_vals, gam_vals)
    assert best.lam == oracle[0]
    assert best.gamma == oracle[1]
    assert best.accuracy == oracle[2]
    assert best.mean_latency_s == pytest.approx(oracle[3], abs=0)


def test_grid_search_matches_brute_force_across_random_trials():
    for seed in range(8):
        rng = np.random.default_rng(100 + seed)
        ts = random_trace_set(rng, n_samples=int(rng.integers(10, 40)))
        n_early = ts.topology.num_early_exits
        scores = rng.uniform(0.0, 1.0, (len(ts), n_early))
        lam_vals = sorted(rng.uniform(0.05, 0.99, int(rng.integers(2, 5))).tolist())
        gam_vals = sorted(rng.uniform(0.0, 1.0, int(rng.integers(2, 5))).tolist())
        drawn = Environment(3.62e9, float(rng.uniform(1e4, 1e7)),
                            float(rng.uniform(0.005, 0.2)))
        # the drawn budget, and one no point can meet
        for env in (drawn, replace(drawn, latency_budget=1e-6)):
            oracle = brute_force_best(ts, scores, env, lam_vals, gam_vals)
            best, frontier = grid_search(ts, scores, env, lam_vals, gam_vals)
            if oracle is None:
                assert_min_latency_fallback(best, frontier)
                continue
            assert best.feasible
            assert (best.lam, best.gamma) == (oracle[0], oracle[1])
            assert best.accuracy == oracle[2]


def test_impossible_budget_returns_flagged_minimum_latency_point():
    ts, scores, env = search_setup(1, budget=1e-9)
    point, frontier = grid_search(ts, scores, env, [0.3, 0.7], [0.0, 0.5])
    assert isinstance(point, PolicyPoint)
    assert_min_latency_fallback(point, frontier)
    stats = policy_stats(ts, point.lam, point.gamma, scores, env)
    assert stats.mean_latency_s == pytest.approx(point.mean_latency_s, abs=0)


def test_lambda_grid_of_eight_values_yields_64_combinations_per_gamma_point():
    ts, scores, env = search_setup(2, budget=1e9)
    lam_vals = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
    gam_vals = [0.0, 0.5, 1.0]
    _, frontier = grid_search(ts, scores, env, lam_vals, gam_vals)
    n_early = ts.topology.num_early_exits
    per_gamma = 64 if n_early == 2 else 8 ** n_early
    assert len(frontier) == per_gamma * len(gam_vals) ** n_early
    lam_combos = {p.lam for p in frontier}
    assert len(lam_combos) == 8 ** n_early


def test_feasible_points_reevaluate_within_budget():
    ts, scores, env = search_setup(3, budget=0.02, bandwidth=2e5)
    best, frontier = grid_search(ts, scores, env, [0.2, 0.5, 0.9], [0.0, 0.5, 1.0])
    if not any(p.feasible for p in frontier):
        assert_min_latency_fallback(best, frontier)
    for p in frontier:
        if p.feasible:
            stats = policy_stats(ts, p.lam, p.gamma, scores, env)
            assert stats.mean_latency_s <= env.latency_budget + 1e-9


def test_sweep_single_bandwidth_degenerates_to_grid_search():
    ts, scores, env = search_setup(4, budget=1.0)
    lam_vals, gam_vals = [0.3, 0.6, 0.9], [0.0, 0.5, 1.0]
    points = sweep_bandwidths(ts, scores, env, [5e5], lam_vals, gam_vals)
    best, _ = grid_search(ts, scores,
                          Environment(env.compute_speed, 5e5, env.latency_budget),
                          lam_vals, gam_vals)
    assert points == [best]


def test_sweep_accuracy_never_drops_when_bandwidth_doubles():
    ts, scores, env = search_setup(5, budget=0.025, bandwidth=1e5)
    lam_vals, gam_vals = [0.2, 0.5, 0.8], [0.0, 0.5, 1.0]
    bws = [1e5, 3e5, 1e6, 3e6]
    base = sweep_bandwidths(ts, scores, env, bws, lam_vals, gam_vals)
    doubled = sweep_bandwidths(ts, scores, env, [2 * b for b in bws],
                               lam_vals, gam_vals)
    for lo, hi in zip(base, doubled):
        if lo.feasible and hi.feasible:
            assert hi.accuracy >= lo.accuracy


def test_sweep_output_sorted_by_bandwidth():
    ts, scores, env = search_setup(6, budget=1.0)
    points = sweep_bandwidths(ts, scores, env, [1e6, 1e4, 1e5],
                              [0.5], [0.0, 1.0])
    assert [p.bandwidth for p in points] == [1e4, 1e5, 1e6]


def test_sweep_takes_a_numpy_array_of_bandwidths_and_rejects_an_empty_one(monkeypatch):
    ts, scores, env = search_setup(8, budget=1.0)
    grids = [0.3, 0.9], [0.0, 1.0]
    assert (sweep_bandwidths(ts, scores, env, np.array([1e6, 1e5]), *grids)
            == sweep_bandwidths(ts, scores, env, [1e6, 1e5], *grids))
    with pytest.raises(ValueError, match=r"^bandwidths\[1\] must lie in \(0, inf\), got -1\.0$"):
        sweep_bandwidths(ts, scores, env, np.array([1e5, -1.0]), *grids)
    monkeypatch.setattr(engine, "PolicyTable", None)  # no table may be built
    for empty in ([], (), np.array([])):
        with pytest.raises(ValueError, match="^bandwidth list must be nonempty$"):
            sweep_bandwidths(ts, scores, env, empty, *grids)


def test_sweep_records_infeasible_bandwidths_without_aborting():
    ts, scores, env = search_setup(7, budget=0.0008, bandwidth=1e5)
    # at 0.8 ms even pure compute may fit, but transmission at 1e3 bit/s never does
    points = sweep_bandwidths(ts, scores, env, [1e3, 1e12], [0.5, 0.9], [0.0])
    assert len(points) == 2
    assert points[0].bandwidth == 1e3
    if not points[0].feasible:
        assert points[0].mean_latency_s > env.latency_budget


def per_combination_optimum(ts, scores, env, lam_vals, gam_vals):
    """The search as one policy_stats call per grid point, in grid order."""
    n_early = ts.topology.num_early_exits
    best = min_lat = None
    for lam in itertools.product(sorted(lam_vals), repeat=n_early):
        for gam in itertools.product(sorted(gam_vals), repeat=n_early):
            stats = policy_stats(ts, lam, gam, scores, env)
            point = PolicyPoint(env.bandwidth, lam, gam, stats.accuracy, stats.mean_latency_s,
                                stats.mean_latency_s <= env.latency_budget)
            if min_lat is None or point.mean_latency_s < min_lat.mean_latency_s:
                min_lat = point
            if point.feasible and (
                    best is None or point.accuracy > best.accuracy
                    or (point.accuracy == best.accuracy
                        and point.mean_latency_s < best.mean_latency_s)):
                best = point
    return best or min_lat


@st.composite
def tied_searches(draw):
    """Few samples on a coarse confidence and score lattice: many exact ties,
    and at low bandwidths usually no point within the budget."""
    num_exits = draw(st.integers(2, 3))
    n_samples = draw(st.integers(1, 12))
    lattice = st.sampled_from([0.5, 0.6, 0.8, 0.95])
    samples = tuple(
        SampleTrace(id=i, label=draw(st.integers(0, 1)),
                    confidences=draw(st.lists(lattice, min_size=num_exits, max_size=num_exits)),
                    predicted=draw(st.lists(st.integers(0, 1), min_size=num_exits,
                                            max_size=num_exits)))
        for i in range(n_samples))
    ts = TraceSet(small_topology_like(num_exits, num_classes=2), samples)
    scores = np.array(draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=num_exits - 1,
                 max_size=num_exits - 1), min_size=n_samples, max_size=n_samples)))
    lam_vals = draw(st.lists(st.sampled_from([0.55, 0.7, 0.9]), min_size=1, max_size=3,
                             unique=True))
    gam_vals = draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 1.0]), min_size=1, max_size=3,
                             unique=True))
    # Repeats in any order: the sweep prices each one and sorts them.
    bandwidths = draw(st.lists(st.sampled_from([1e1, 1e3, 1e4, 1e5, 1e6, 1e8]), min_size=1,
                               max_size=6))
    env = Environment(1e9, 1e6, draw(st.sampled_from([0.002, 0.005, 0.05])))
    return ts, scores, env, bandwidths, lam_vals, gam_vals


@settings(max_examples=60, deadline=None)
@given(search=tied_searches())
def test_sweep_equals_grid_search_per_bandwidth_bit_for_bit(search):
    ts, scores, env, bandwidths, lam_vals, gam_vals = search
    walk = engine._walk
    walks = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_walk", lambda *a: walks.append(a) or walk(*a))
        points = sweep_bandwidths(ts, scores, env, bandwidths, lam_vals, gam_vals)
    # the table counts every combination without walking a sample
    assert walks == []

    expected = []
    for bw in sorted(bandwidths):
        env_bw = Environment(env.compute_speed, bw, env.latency_budget)
        best, frontier = grid_search(ts, scores, env_bw, lam_vals, gam_vals)
        expected.append(best)
        reference = per_combination_optimum(ts, scores, env_bw, lam_vals, gam_vals)
        if not reference.feasible:
            assert_min_latency_fallback(best, frontier)
        # repr tells every float apart bit for bit, signed zeros included
        assert repr(reference) == repr(expected[-1])
    assert repr(points) == repr(expected)


def constant_points(lam, gamma, bws):
    return [PolicyPoint(bw, lam, gamma, 0.9, 0.01, True) for bw in bws]


def test_fit_regressors_reproduces_constant_thresholds_everywhere():
    pts = constant_points((0.7, 0.85), (0.3, 0.5), [1e5, 3e5, 5e5, 7e5, 1e6])
    regs = fit_regressors(pts, [(1e5, 1e6)])
    assert regs[0].max_abs_error <= 1e-3
    for bw in np.geomspace(1e5, 1e6, 17):
        th = adapt(regs, bw)
        assert th.lam == pytest.approx((0.7, 0.85), abs=1e-3)
        assert th.gamma == pytest.approx((0.3, 0.5), abs=1e-3)


def test_fit_regressors_five_point_training_error():
    bws = [1e5, 3e5, 5e5, 7e5, 1e6]
    pts = [PolicyPoint(bw, (0.5 + 0.08 * i, 0.9 - 0.05 * i),
                       (0.1 * i, 0.8 - 0.1 * i), 0.9, 0.01, True)
           for i, bw in enumerate(bws)]
    regs = fit_regressors(pts, [(1e5, 1e6)])
    assert regs[0].max_abs_error <= 0.05


def test_fit_regressors_midpoints_stay_near_neighbor_hull():
    bws = [1e5, 3e5, 5e5, 7e5, 1e6]
    pts = [PolicyPoint(bw, (0.5 + 0.1 * i, 0.4 + 0.08 * i),
                       (0.8 - 0.15 * i, 0.6 - 0.1 * i), 0.9, 0.01, True)
           for i, bw in enumerate(bws)]
    regs = fit_regressors(pts, [(1e5, 1e6)])
    for i in range(len(bws) - 1):
        mid = (bws[i] * bws[i + 1]) ** 0.5
        th = adapt(regs, mid)
        for j in range(2):
            lo = min(pts[i].lam[j], pts[i + 1].lam[j]) - 0.05
            hi = max(pts[i].lam[j], pts[i + 1].lam[j]) + 0.05
            assert lo <= th.lam[j] <= hi
            lo = min(pts[i].gamma[j], pts[i + 1].gamma[j]) - 0.05
            hi = max(pts[i].gamma[j], pts[i + 1].gamma[j]) + 0.05
            assert lo <= th.gamma[j] <= hi


def test_adapt_at_training_bandwidth_matches_recorded_optimum():
    bws = [1e5, 3e5, 5e5, 7e5, 1e6]
    pts = [PolicyPoint(bw, (0.5 + 0.08 * i, 0.6), (0.2, 0.1 * i), 0.9, 0.01, True)
           for i, bw in enumerate(bws)]
    regs = fit_regressors(pts, [(1e5, 1e6)])
    slack = max(regs[0].max_abs_error, 1e-6) + 1e-9
    for p in pts:
        th = adapt(regs, p.bandwidth)
        assert th.lam == pytest.approx(p.lam, abs=slack)
        assert th.gamma == pytest.approx(p.gamma, abs=slack)


def test_adapt_out_of_range_errors():
    pts = constant_points((0.5, 0.5), (0.5, 0.5), [1e5, 1e6])
    regs = fit_regressors(pts, [(1e5, 1e6)])
    with pytest.raises(ValueError, match="outside"):
        adapt(regs, 1e7)
    with pytest.raises(ValueError, match="outside"):
        adapt(regs, 5e4)


def test_regressor_with_out_of_range_thresholds_is_rejected(tmp_path):
    good = ThresholdRegressor((1e5, 1e6), (1e5, 1e6), [[0.5, 0.5]] * 2, [[0.5, 0.5]] * 2, 0.0)
    path = tmp_path / "regs.json"
    save_regressors([good], path)
    saved = json.loads(path.read_text())
    for lam, gamma, message in (
            ([[0.5, 0.5], [1.0, 0.5]], [[0.0, 0.0], [0.5, 1.0]],
             r"lambda\[1\]\[0\] must lie in \(0, 1\), got 1.0$"),
            ([[0.5, 0.5], [0.5, 0.5]], [[0.0, -0.1], [0.5, 1.0]],
             r"gamma\[0\]\[1\] must lie in \[0, 1\], got -0.1$"),
            ([[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [1.5, 1.0]],
             r"gamma\[1\]\[0\] must lie in \[0, 1\], got 1.5$")):
        with pytest.raises(ValueError, match=message):
            ThresholdRegressor((1e5, 1e6), (1e5, 1e6), lam, gamma, 0.0)
        saved["regressors"][0].update({"lambda": lam, "gamma": gamma})
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=f"regressors\\[0\\]: {message}"):
            load_regressors(path)


def test_shared_endpoint_routes_to_lower_interval():
    low = constant_points((0.4, 0.4), (0.1, 0.1), [1e5, 5e5, 1e6])
    high = constant_points((0.8, 0.8), (0.9, 0.9), [2e6, 5e6, 1e7])
    regs = fit_regressors(low + high, [(1e5, 1e6), (1e6, 1e7)])
    # 1e6 belongs to both intervals; the lower one must win
    th = adapt(regs, 1e6)
    assert th.lam == pytest.approx((0.4, 0.4), abs=1e-3)
    assert adapt(regs, 2e6).lam == pytest.approx((0.8, 0.8), abs=1e-3)


def test_fit_regressors_rejects_sparse_intervals():
    pts = constant_points((0.5, 0.5), (0.5, 0.5), [1e5, 2e5])
    with pytest.raises(ValueError, match="training"):
        fit_regressors(pts, [(1e5, 2e5), (3e5, 4e5)])


@pytest.mark.parametrize("interval, got", [
    ([1e5, 1e6, 1e7], "[100000.0, 1000000.0, 10000000.0]"),
    ([1e5], "[100000.0]"),
    ([1e6, 1e5], "[1000000.0, 100000.0]"),
])
def test_fit_regressors_names_a_malformed_interval(tmp_path, interval, got):
    pts = constant_points((0.5, 0.5), (0.5, 0.5), [1e5, 1e6])
    with pytest.raises(ValueError) as exc:
        fit_regressors(pts, [interval])
    assert str(exc.value) == f"intervals[0] must be [lo, hi] with lo < hi, got {got}"
    # A regressor read back holds its interval to the same rule.
    path = tmp_path / "regs.json"
    save_regressors(fit_regressors(pts, [(1e5, 1e6)]), path)
    doc = json.loads(path.read_text())
    doc["regressors"][0]["interval"] = interval
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_regressors(path)
    assert str(exc.value) == (f"{path}: malformed 'threshold_regressors' document: regressors[0]: "
                              f"interval must be [lo, hi] with lo < hi, got {got}")


def test_fit_regressors_rejects_no_intervals():
    pts = constant_points((0.5, 0.5), (0.5, 0.5), [1e5, 1e6])
    with pytest.raises(ValueError) as exc:
        fit_regressors(pts, [])
    assert str(exc.value) == "intervals must be a nonempty list, got []"


def test_no_regressors_are_not_written(tmp_path):
    path = tmp_path / "regs.json"
    with pytest.raises(ValueError) as exc:
        save_regressors([], path)
    # The wording load_regressors rejects such a file with.
    assert str(exc.value) == "regressors must be a nonempty list, got []"
    assert not path.exists()


def test_adapted_accuracy_stays_within_two_points_of_optimum():
    rng = np.random.default_rng(77)
    ts = random_trace_set(rng, n_samples=300)
    n_early = ts.topology.num_early_exits
    scores = rng.uniform(0.0, 1.0, (len(ts), n_early))
    env = Environment(3.62e9, 1e6, 0.03)
    bws = [1e5, 3e5, 5e5, 7e5, 1e6]
    points = sweep_bandwidths(ts, scores, env, bws,
                              [0.2, 0.4, 0.6, 0.8], [0.0, 0.5, 1.0])
    feasible = [p for p in points if p.feasible]
    if len(feasible) < 2:
        pytest.skip("not enough feasible points to fit a regressor")
    regs = fit_regressors(feasible, [(1e5, 1e6)])
    from dataclasses import replace as _replace
    for p in feasible:
        th = adapt(regs, p.bandwidth)
        stats = policy_stats(ts, th.lam, th.gamma, scores,
                             _replace(env, bandwidth=p.bandwidth))
        assert stats.accuracy >= p.accuracy - 0.02


def test_policy_points_csv_round_trip(tmp_path):
    pts = [
        PolicyPoint(1e5, (0.2, 0.9), (0.0, 1.0), 0.8123, 0.0291, True),
        PolicyPoint(1e6, (0.5, 0.5), (0.25, 0.75), 0.85, 0.011, False),
    ]
    path = tmp_path / "points.csv"
    save_policy_points(pts, path)
    assert load_policy_points(path) == pts
    path.write_text(path.read_text().partition("\n")[0] + "\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 2: table has no rows$"):
        load_policy_points(path)


@pytest.mark.parametrize("bad, where", [
    (dict(accuracy=float("nan")), "line 3: accuracy: value must be a finite real number, got nan"),
    (dict(lam=(1.5, 0.5)), "line 3: lambda_1: value must lie in (0, 1), got 1.5"),
], ids=["nan-accuracy", "lambda-1.5"])
def test_policy_points_csv_writes_only_what_load_reads(tmp_path, bad, where):
    good = PolicyPoint(1e5, (0.2, 0.9), (0.0, 1.0), 0.8123, 0.0291, True)
    path = tmp_path / "points.csv"
    with pytest.raises(ValueError) as info:
        save_policy_points([good, replace(good, bandwidth=1e6, **bad)], path)
    assert str(info.value) == f"policy points: {where}"
    assert not path.exists()


def test_regressor_bundle_round_trip(tmp_path):
    pts = constant_points((0.6, 0.7), (0.2, 0.3), [1e5, 3e5, 1e6])
    regs = fit_regressors(pts, [(1e5, 1e6)])
    path = tmp_path / "regs.json"
    save_regressors(regs, path)
    loaded = load_regressors(path)
    assert loaded[0].interval == regs[0].interval
    assert loaded[0].max_abs_error == regs[0].max_abs_error
    for bw in (1e5, 4.2e5, 1e6):
        assert adapt(loaded, bw) == adapt(regs, bw)


@st.composite
def schedules(draw):
    """Optima at 2-6 distinct bandwidths, each a valid row for 1-3 early exits."""
    n_early = draw(st.integers(1, 3))
    steps = sorted(draw(st.lists(st.integers(0, 600), min_size=2, max_size=6, unique=True)))
    row = lambda values: draw(st.lists(values, min_size=n_early, max_size=n_early))
    lam = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    return [PolicyPoint(10.0 ** (3 + step / 100), row(lam), row(st.floats(0.0, 1.0)),
                        0.9, 0.01, True) for step in steps]


@pytest.fixture(scope="module")
def regs_path(tmp_path_factory):
    return tmp_path_factory.mktemp("schedules") / "regs.json"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(points=schedules(), share=st.floats(0.0, 1.0))
def test_schedule_keeps_its_rows_and_interpolates_between_neighbours(regs_path, points, share):
    regs = fit_regressors(points, [(points[0].bandwidth, points[-1].bandwidth)])
    assert regs[0].max_abs_error == 0.0
    for p in points:
        th = adapt(regs, p.bandwidth)
        assert repr((th.lam, th.gamma)) == repr((p.lam, p.gamma))
    for below, above in zip(points, points[1:]):
        bw = below.bandwidth ** (1.0 - share) * above.bandwidth ** share
        th = adapt(regs, min(max(bw, below.bandwidth), above.bandwidth))
        for got, a, b in zip(th.lam + th.gamma, below.lam + below.gamma,
                             above.lam + above.gamma):
            assert min(a, b) <= got <= max(a, b)
            assert got == pytest.approx(a + share * (b - a), abs=1e-9)  # linear in log10
    save_regressors(regs, regs_path)
    assert repr(load_regressors(regs_path)) == repr(regs)


def test_points_sharing_a_bandwidth_give_their_mean_row():
    pts = [PolicyPoint(1e5, (0.4,), (0.2,), 0.9, 0.01, True),
           PolicyPoint(1e5, (0.6,), (0.4,), 0.9, 0.01, True),
           PolicyPoint(1e6, (0.5,), (1.0,), 0.9, 0.01, True)]
    (reg,) = fit_regressors(pts, [(1e5, 1e6)])
    assert reg.train_bandwidths == (1e5, 1e6)
    assert reg.lam == ((0.5,), (0.5,)) and reg.gamma == ((0.30000000000000004,), (1.0,))
    assert reg.max_abs_error == pytest.approx(0.1)
    with pytest.raises(ValueError, match="has 1 training bandwidths"):
        fit_regressors(pts[:2], [(1e5, 1e6)])
