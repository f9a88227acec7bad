"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 4, 5, 7, 8 and 9 read their curves from the pass `fairpace run`
ships: `harness.run_experiment`, or, where a criterion needs a grid a
config cannot name, the two functions it is made of: `harness._set_up`,
which builds the run's model, market and reference solve, and
`harness._run_paths`, the batch function it maps over its paths. None of
them computes a metric of its own. Criteria 1, 2, 6 and 11 check recorded
trajectories (`pace.run_pace` and `run_pace_paths` traces); criterion 3
checks the hindsight solver against a grid oracle and criterion 10 the
run's reproducibility.

Run with `pytest tests/test_acceptance.py -s -v` to stream the per-criterion
lines; under default capture they appear for failing tests only.
"""

import time

import numpy as np
import pytest

from fairpace.eg import hindsight_solution, market_problem
from fairpace.harness import (
    _run_paths, _set_up, config_from_dict, generate_market, run_experiment, summarize,
)
from fairpace.inputs import (
    CorruptionSchedule,
    random_corrupted_model,
    random_iid_model,
    random_markov_model,
    random_periodic_model,
    reference_distribution,
    sample_sequence,
)
from fairpace.market import ItemSequence
from fairpace.pace import (
    equivalence_with_da,
    pacing_box,
    regret_diagnostic,
    run_pace,
    run_pace_paths,
)
from fairpace.prng import derive_path_seed
from tests.conftest import random_instance
from tests.oracles import envy

DELTA0 = 1.0


def _passline(num, text):
    print(f"criterion {num:2d}: PASS  {text}")


# ---------------------------------------------------------------------------
# shared batteries
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def equivalence_battery():
    """50 mixed-model runs at t=2000 with traces and hindsight solutions."""
    rng = np.random.default_rng(12345)
    t = 2000
    runs = []
    started = time.time()
    for k in range(50):
        n = [2, 5, 20][k % 3]
        m = [3, 50][k % 2]
        inst = random_instance(rng, n, m)
        kind = k % 4
        if kind == 0:
            model = random_iid_model(m, seed=k)
        elif kind == 1:
            model = random_corrupted_model(
                m, CorruptionSchedule("decaying", scale=0.5), seed=k
            )
        elif kind == 2:
            model = random_markov_model(m, seed=k)
        else:
            model = random_periodic_model(m, q=20, seed=k)
        seq = sample_sequence(model, t, path_seed=1000 + k)
        equivalent = equivalence_with_da(inst, seq, delta0=DELTA0, tol=1e-12)
        trace = run_pace(inst, seq, delta0=DELTA0, record_betas=True)
        hs = hindsight_solution(inst, seq, delta0=DELTA0)
        runs.append(
            {"inst": inst, "seq": seq, "trace": trace, "hs": hs, "equivalent": equivalent}
        )
    return {"runs": runs, "elapsed": time.time() - started, "rng": rng}


def _config(n, m, rank, market_seed, model, base_seed):
    """A run of ten 20k-step paths on a synthetic market (noise 0.1)."""
    market = {"n": n, "m": m, "rank": rank, "noise": 0.1, "seed": market_seed}
    return config_from_dict(
        {"schema": 1, "market": {"generator": market}, "model": model, "t": 20000,
         "paths": 10, "base_seed": base_seed}
    )


def _batch_means(model, base_seed):
    """Across-path means of every curve at t = 1000 and 20000 of the ten
    paths of `_config`'s run on the n=10, m=30 synthetic market, set up by
    `_set_up` and scored by `_run_paths` as `run_experiment` does, and
    averaged as it averages."""
    config = _config(10, 30, 5, 202, model, base_seed)
    batch = _run_paths(config, *_set_up(config, 1e-8)[:4], np.array([1000, 20000]), 1e-8, range(10))
    return summarize([series for series, _, _ in batch]).means


@pytest.fixture(scope="module")
def iid_trend():
    """Curve means of the iid model 101's paths, and the seconds they took."""
    started = time.time()
    means = _batch_means({"kind": "iid", "random": {"m": 30, "seed": 101}}, base_seed=7)
    return means, time.time() - started


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_pace_da_equivalence(equivalence_battery):
    runs = equivalence_battery["runs"]
    assert len(runs) == 50
    assert all(r["equivalent"] for r in runs)
    elapsed = equivalence_battery["elapsed"]
    assert elapsed < 10.0
    _passline(1, f"50/50 trajectories agree within 1e-12 at every step ({elapsed:.1f}s)")


def test_criterion_02_regret_bound_diagnostic(equivalence_battery):
    """The suboptimality bound must hold on every run at the hindsight point
    and at 5 random box points.

    Asserted with the barrier's strong-convexity constant on the box,
    1/(n (1+delta0)^2), under which the bound is a deterministic theorem.
    The looser constant 1/n fails at far-out reference points with strongly
    negative regret, so it is only reported at the hindsight point.
    """
    rng = equivalence_battery["rng"]
    worst_margin = np.inf
    worst_loose = np.inf
    for k, run in enumerate(equivalence_battery["runs"]):
        n = run["inst"].n
        lo, hi = pacing_box(n, DELTA0)
        sigma_box = 1.0 / (n * hi * hi)
        refs = [run["hs"].beta_hat]
        refs += [lo + rng.random(n) * (hi - lo) for _ in range(5)]
        for j, ref in enumerate(refs):
            res = regret_diagnostic(run["trace"], run["inst"], run["seq"], ref, sigma=sigma_box)
            worst_margin = min(worst_margin, res.rhs - res.lhs)
            assert res.holds, (k, j, res)
        loose = regret_diagnostic(
            run["trace"], run["inst"], run["seq"], run["hs"].beta_hat, sigma=1.0 / n
        )
        worst_loose = min(worst_loose, loose.rhs - loose.lhs)
    _passline(
        2,
        f"bound holds on 50 runs x 6 reference points (worst margin {worst_margin:.3g}; "
        f"at the hindsight point the 1/n constant also held, margin {worst_loose:.3g})",
    )


def _grid_objective_argmin(prob, axes):
    """Exhaustive enumeration of the dual objective over an axis grid.

    Axis i is broadcast along lattice dimension i, so item j's winning bid
    max_i(axis_i * v_ij) and the log barrier come from per-axis products
    without a (points x n x m) bid array.
    """
    n = prob.n
    grids = [np.reshape(ax, [-1 if d == i else 1 for d in range(n)]) for i, ax in enumerate(axes)]
    vals = 0.0
    for j, w in enumerate(prob.weights):
        top = grids[0] * prob.valuations[0, j]
        for i in range(1, n):
            top = np.maximum(top, grids[i] * prob.valuations[i, j])
        vals = vals + top * w
    logs = sum(np.log(g) for g in grids)
    vals = np.broadcast_to(vals - logs / n, [len(ax) for ax in axes])
    return np.array([ax[k] for ax, k in zip(axes, np.unravel_index(vals.argmin(), vals.shape))])


def _refine_around(prob, center, step, span=10, rounds=400):
    """Lattice argmin at resolution `step` near `center`, re-centered until
    no window point improves (the kink valleys of the objective are nearly
    flat, so a lattice argmin can drift several steps along them)."""
    pt = np.asarray(center, dtype=np.float64)
    for _ in range(rounds):
        axes = [
            np.arange(max(prob.lo, c - span * step), min(prob.hi, c + span * step) + 1e-12, step)
            for c in pt
        ]
        new_pt = _grid_objective_argmin(prob, axes)
        if not np.any(np.abs(new_pt - pt) > step / 2):
            return pt
        pt = new_pt
    return pt


def _grid_oracle(prob):
    """Independent grid minimizer: the 1e-3 box lattice, refined by
    wide-window lattice walks at decreasing steps.

    Wide windows matter: near a kink-valley bottom the descent direction
    must be approximated by an integer step combination, and the quality of
    that approximation is what lets the walk keep descending instead of
    stalling a few lattice steps up the valley. Pure enumeration
    throughout; never touches the solver's answer.
    """
    n = prob.n
    if n <= 2:
        full = np.arange(prob.lo, prob.hi + 1e-12, 1e-3)
        pt = _grid_objective_argmin(prob, [full] * n)
    else:
        wide = np.arange(prob.lo, prob.hi + 1e-12, 2e-2)
        pt = _grid_objective_argmin(prob, [wide] * n)
        pt = _refine_around(prob, pt, 1e-3, span=45)
    for step in (1e-4, 1e-5, 1e-6):
        pt = _refine_around(prob, pt, step, span=32, rounds=1500)
    return pt


def test_criterion_03_hindsight_oracle_equivalence():
    rng = np.random.default_rng(2718)
    started = time.time()
    worst = 0.0
    closed_form_worst = 0.0
    for k in range(30):
        n = (k % 3) + 1
        m = int(rng.integers(2, 6))
        inst = random_instance(rng, n, m)
        seq = ItemSequence(rng.integers(0, m, size=200))
        sol = hindsight_solution(inst, seq, delta0=DELTA0)
        weights = np.bincount(seq.items, minlength=m) / seq.t
        prob = market_problem(inst, weights, DELTA0)
        if n == 1:
            expected = float(np.clip(1.0 / (inst.valuations[0] @ weights), prob.lo, prob.hi))
            closed_form_worst = max(closed_form_worst, abs(sol.beta_hat[0] - expected))
            assert abs(sol.beta_hat[0] - expected) <= 1e-8
        grid_pt = _grid_oracle(prob)
        gap = float(np.abs(sol.beta_hat - grid_pt).max())
        worst = max(worst, gap)
        assert gap <= 2e-3, (k, n, m, gap)
    elapsed = time.time() - started
    assert elapsed < 30.0
    _passline(
        3,
        f"30/30 within 2e-3 of the grid oracle (worst {worst:.2e}); n=1 closed form "
        f"within {closed_form_worst:.1e} ({elapsed:.1f}s)",
    )


def test_criterion_04_iid_convergence_trend(iid_trend):
    means, elapsed = iid_trend
    at1000, at20000 = means["mse_beta_star"]
    ratio = at20000 / at1000
    assert ratio <= 0.2
    assert elapsed < 60.0
    _passline(4, f"mean ||beta - beta*||^2 ratio t=20000/t=1000 is {ratio:.3f} <= 0.2 ({elapsed:.1f}s)")


def test_criterion_05_corruption_monotonicity():
    base = reference_distribution(random_iid_model(30, seed=101)).probs.tolist()
    started = time.time()
    terminal = []
    for target in (0.0, 0.05, 0.2):
        model = {
            "kind": "corrupted",
            "base": base,
            "corruption": {"kind": "budgeted", "target": target},
            "seed": 303,
        }
        report = run_experiment(_config(10, 30, 5, 202, model, base_seed=17))
        terminal.append(float(report.means["mse_beta_star"][-1]))
    elapsed = time.time() - started
    assert terminal[0] < terminal[1] < terminal[2]
    assert elapsed < 180.0
    _passline(
        5,
        "terminal mse strictly increases in the corruption target: "
        + " < ".join(f"{v:.3e}" for v in terminal)
        + f" ({elapsed:.1f}s)",
    )


def test_criterion_06_periodic_scaling():
    """Checked on recorded traces: its statistic, ||beta - beta_hat||^2
    against each path's own hindsight multipliers beta_hat, is none of the
    run's curves (mse_beta_star compares against the reference optimum),
    and adding one would change the CSVs every run writes."""
    n, m = 10, 30
    started = time.time()
    results = {}
    for q in (10, 50, 100):
        model = random_periodic_model(m, q=q, seed=404)
        ref = reference_distribution(model)
        inst = generate_market(n, m, rank=5, noise=0.1, seed=202, ref=ref)
        at500, at20000 = [], []
        seqs = [sample_sequence(model, 20000, derive_path_seed(27, p)) for p in range(10)]
        traces = run_pace_paths(inst, seqs, delta0=DELTA0, record_times=[500, 20000])
        for seq, trace in zip(seqs, traces):
            hs = hindsight_solution(inst, seq, delta0=DELTA0)
            at500.append(float(((trace.beta_at[0] - hs.beta_hat) ** 2).sum()))
            at20000.append(float(((trace.beta_at[1] - hs.beta_hat) ** 2).sum()))
        results[q] = (float(np.mean(at500)), float(np.mean(at20000)))
    elapsed = time.time() - started
    terminal = [results[q][1] for q in (10, 50, 100)]
    assert terminal[0] <= terminal[1] <= terminal[2]
    for q in (10, 50, 100):
        assert results[q][1] < 0.5 * results[q][0], (q, results[q])
    assert elapsed < 180.0
    _passline(
        6,
        "terminal mse nondecreasing in q: "
        + " <= ".join(f"{v:.3e}" for v in terminal)
        + f"; all below 50% of their t=500 value ({elapsed:.1f}s)",
    )


def test_criterion_07_markov_convergence():
    started = time.time()
    means = _batch_means({"kind": "markov", "random": {"m": 30, "seed": 505}}, base_seed=37)
    beta_ratio = means["rel_beta_hs"][1] / means["rel_beta_hs"][0]
    u_ratio = means["rel_u_hs"][1] / means["rel_u_hs"][0]
    elapsed = time.time() - started
    assert beta_ratio < 1 / 3
    assert u_ratio < 1 / 3
    assert elapsed < 60.0
    _passline(
        7,
        f"terminal/t=1000 ratios: rel_beta_hs {beta_ratio:.3f}, rel_u_hs {u_ratio:.3f}, "
        f"both < 1/3 ({elapsed:.1f}s)",
    )


def test_criterion_08_expenditure_target(iid_trend):
    at1000, at20000 = iid_trend[0]["mse_expenditure"]
    ratio = at20000 / at1000
    assert ratio <= 0.2
    _passline(8, f"mean ||spend - 1/n||^2 ratio t=20000/t=1000 is {ratio:.3f} <= 0.2")


def test_criterion_09_baseline_dominance():
    """The paper-scale run (n=100, m=300, t=20000, 10 paths per model), with
    every reference and hindsight solve certified exact."""
    started = time.time()
    margins = {}
    certified = 0
    for model in (
        {"kind": "iid", "random": {"m": 300, "seed": 909}},
        {"kind": "corrupted", "random": {"m": 300, "seed": 919},
         "corruption": {"kind": "decaying", "scale": 1.0}},
        {"kind": "markov", "random": {"m": 300, "seed": 929}},
        {"kind": "periodic", "random": {"m": 300, "seed": 939, "q": 100}},
    ):
        kind = model["kind"]
        report = run_experiment(_config(100, 300, 10, 808, model, base_seed=47))
        for solve in [report.solver["reference"], *report.solver["hindsight"]]:
            assert solve["certified_mu"] is not None, (kind, solve)
            certified += 1
        late = report.times >= 2000
        pace_mean = report.means["rel_u_hs"][late]
        base_mean = report.means["baseline_rel_u_hs"][late]
        assert np.all(pace_mean < base_mean), kind
        margins[kind] = float((base_mean - pace_mean).min())
    elapsed = time.time() - started
    assert elapsed < 600.0
    _passline(
        9,
        "mean rel_u_hs below the proportional baseline for all t >= 2000 under all four "
        "models (min margins "
        + ", ".join(f"{k}={v:.3f}" for k, v in margins.items())
        + f"; {certified} solves certified exact; {elapsed:.0f}s)",
    )


def test_criterion_10_reproducibility(tmp_path):
    doc = {
        "schema": 1,
        "market": {"generator": {"n": 5, "m": 10, "rank": 3, "noise": 0.1, "seed": 42}},
        "model": {"kind": "markov", "random": {"m": 10, "seed": 43}},
        "t": 2000,
        "paths": 3,
        "delta0": 1.0,
        "base_seed": 44,
    }
    cfg = config_from_dict(doc)
    run_experiment(cfg, out_dir=str(tmp_path / "first"))
    run_experiment(cfg, out_dir=str(tmp_path / "second"))
    for name in ("paths.csv", "aggregate.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, name
    _passline(10, "re-running the experiment config reproduced both metric CSVs byte for byte")


def test_criterion_11_invariant_suite():
    rng = np.random.default_rng(31415)
    cases = 0
    for _ in range(1100):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        t = int(rng.integers(3, 51))
        delta0 = float(rng.choice([0.5, 1.0, 2.0]))
        inst = random_instance(rng, n, m)
        seq = ItemSequence(rng.integers(0, m, size=t))
        trace = run_pace(inst, seq, delta0=delta0, record_betas=True)
        lo, hi = pacing_box(n, delta0)

        # box membership at every step
        assert np.all(trace.betas >= lo) and np.all(trace.betas <= hi)
        # single winner, integral allocation, spend identity per step
        bids = trace.betas[:-1, :] * inst.valuations[:, seq.items].T
        assert np.array_equal(bids.argmax(axis=1), trace.winners)
        assert np.array_equal(bids.max(axis=1), trace.winning_bids)
        assert np.array_equal(
            inst.valuations[trace.winners, seq.items], trace.winner_values
        )
        # running-average identity at the horizon
        totals = np.bincount(trace.winners, weights=trace.winner_values, minlength=n)
        assert np.allclose(trace.u_bar_at[-1], totals / t, atol=1e-12)
        # envy nonnegativity
        assert np.all(envy(trace, inst, seq) >= 0)
        cases += 1
    assert cases >= 1000
    _passline(11, f"box, integrality, spend, averaging, and envy invariants on {cases} cases")
