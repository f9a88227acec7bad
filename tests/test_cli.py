import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fairpace
from fairpace import cli, errors, harness
from fairpace.cli import main
from fairpace.eg import hindsight_solution
from fairpace.errors import ConfigError, FairpaceError, NoConvergence
from fairpace.harness import generate_market, load_config
from fairpace.inputs import model_to_dict, random_iid_model, sample_sequences
from fairpace.market import market_to_dict
from fairpace.metrics import METRIC_NAMES
from fairpace.pace import MAX_DELTA0


@pytest.fixture
def market_file(tmp_path):
    inst = generate_market(3, 4, rank=2, noise=0.1, seed=5)
    path = tmp_path / "market.json"
    path.write_text(json.dumps(market_to_dict(inst)))
    return path


@pytest.fixture
def model_file(tmp_path):
    model = random_iid_model(4, seed=7)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    return path


def test_gen_market_writes_instance(tmp_path):
    out = tmp_path / "m.json"
    code = main(
        ["gen-market", "--n", "3", "--m", "4", "--rank", "2", "--seed", "1", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 3 and doc["m"] == 4
    assert len(doc["valuations"]) == 3


def test_sample_then_solve(tmp_path, market_file, model_file):
    seq_path = tmp_path / "seq.json"
    assert main(["sample", "--model", str(model_file), "--t", "200", "--seed", "3", "--out", str(seq_path)]) == 0
    doc = json.loads(seq_path.read_text())
    assert doc["t"] == 200

    sol_path = tmp_path / "sol.json"
    code = main(
        ["solve", "--market", str(market_file), "--sequence", str(seq_path), "--out", str(sol_path)]
    )
    assert code == 0
    sol = json.loads(sol_path.read_text())
    assert set(sol) >= {"beta", "objective", "residual"}
    assert len(sol["beta"]) == 3
    fields = {"mu", "steps", "evaluations", "predicted"}
    assert sol["stages"] and all(set(stage) == fields for stage in sol["stages"])


def test_sample_determinism(tmp_path, model_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["sample", "--model", str(model_file), "--t", "50", "--seed", "9", "--out", str(a)])
    main(["sample", "--model", str(model_file), "--t", "50", "--seed", "9", "--out", str(b)])
    assert a.read_text() == b.read_text()


def test_run_and_summarize(tmp_path):
    config = {
        "schema": 1,
        "market": {"generator": {"n": 2, "m": 3, "rank": 1, "noise": 0.1, "seed": 2}},
        "model": {"kind": "iid", "random": {"m": 3, "seed": 4}},
        "t": 120,
        "paths": 2,
        "base_seed": 5,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "results"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "paths.csv").exists()

    agg = tmp_path / "agg.csv"
    assert main(["summarize", "--paths-csv", str(out_dir / "paths.csv"), "--out", str(agg)]) == 0
    # the recomputed aggregate matches the one the run wrote
    assert agg.read_bytes() == (out_dir / "aggregate.csv").read_bytes()


def test_run_threads_match_serial(tmp_path, monkeypatch):
    # the pool's workers warm-start each hindsight solve from the reference
    # optimum as a serial run does: the same bytes and the same solver
    # counts, those of a warm start and not of a cold solve; two CPUs, so
    # two workers start on any host
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    config = {
        "schema": 1,
        "market": {"generator": {"n": 6, "m": 20, "rank": 2, "noise": 0.1, "seed": 3}},
        "model": {"kind": "markov", "random": {"m": 20, "seed": 4}},
        "t": 400,
        "paths": 3,
        "base_seed": 5,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    serial, pooled = tmp_path / "serial", tmp_path / "pooled"
    assert main(["run", "--config", str(cfg_path), "--out", str(serial), "--threads", "1"]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(pooled), "--threads", "2"]) == 0
    for name in ("paths.csv", "aggregate.csv"):
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()
    summaries = [json.loads((out / "summary.json").read_text()) for out in (serial, pooled)]
    assert summaries[0]["solver"] == summaries[1]["solver"]

    cfg = load_config(cfg_path)
    model, ref, instance, star, _ = harness._set_up(cfg, 1e-8)
    seqs = sample_sequences(model, cfg.t, summaries[1]["provenance"]["path_seeds"])
    warm = [hindsight_solution(instance, seq, warm=(star.beta_hat, ref.probs)) for seq in seqs]
    cold = [hindsight_solution(instance, seq) for seq in seqs]
    steps = [counts["newton_steps"] for counts in summaries[1]["solver"]["hindsight"]]
    assert steps == [sol.iterations for sol in warm] != [sol.iterations for sol in cold]


def test_run_seed_override_changes_output(tmp_path):
    config = {
        "schema": 1,
        "market": {"generator": {"n": 2, "m": 3, "rank": 1, "noise": 0.1, "seed": 2}},
        "model": {"kind": "iid", "random": {"m": 3, "seed": 4}},
        "t": 60,
        "paths": 1,
        "base_seed": 5,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg_path), "--seed", "6", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a" / "paths.csv").read_text() != (tmp_path / "b" / "paths.csv").read_text()


def test_config_error_exit_code(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 2
    no_schema = tmp_path / "noschema.json"
    no_schema.write_text(json.dumps({"market": {}, "model": {}, "t": 1, "paths": 1}))
    assert main(["run", "--config", str(no_schema)]) == 2


@pytest.mark.parametrize(
    "override, message",
    [
        ({"t": "abc"}, "t must be int"),
        ({"t": None}, "t must be int"),
        ({"paths": "x"}, "paths must be int"),
        ({"base_seed": "s"}, "base_seed must be int"),
        ({"delta0": "x"}, "delta0 must be float"),
        ({"delta0": -1}, "delta0 must be positive"),
        ({"delta0": 0}, "delta0 must be positive"),
        ({"grid": {"dense_until": "a"}}, "dense_until must be int"),
        ({"grid": {"dense_until": 0}}, "grid.dense_until must be positive"),
        ({"grid": {"factor": "f"}}, "factor must be float"),
        ({"grid": {"factor": "nan"}}, "grid.factor finite"),
        ({"grid": 3}, "grid must be an object"),
        ({"market": "path"}, "market spec must be an object"),
        ({"model": {"kind": "corrupted", "random": {"m": 3}, "corruption": "x"}}, "must be objects"),
        (
            {"model": {"kind": "corrupted", "random": {"m": 3}, "corruption": {"scale": "z"}}},
            "bad random model directive",
        ),
        ({"model": {"kind": "periodic", "random": {"m": 3}}}, "bad random model directive"),
        ({"model": {"kind": "periodic", "random": {"m": 3, "q": "a"}}}, "bad random model directive"),
        (
            {"model": {"kind": "iid", "random": {"m": 4, "seed": 4}}},
            "market generator has m=3 items but the input model has m=4",
        ),
        # integer fields refuse bools and fractional floats instead of truncating
        ({"t": 150.7}, "t must be int, got 150.7"),
        ({"paths": True}, "paths must be int, got True"),
        ({"base_seed": -3.9}, "base_seed must be int, got -3.9"),
        ({"delta0": True}, "delta0 must be float, got True"),
        ({"grid": {"dense_until": 10.5}}, "dense_until must be int, got 10.5"),
        ({"market": {"generator": {"n": 2.5, "m": 3}}}, "n must be int, got 2.5"),
        ({"market": {"generator": {"n": 2, "m": 3, "rank": True}}}, "rank must be int"),
        ({"market": {"generator": {"n": 2, "m": 3, "seed": 2.5}}}, "seed must be int"),
        ({"model": {"kind": "iid", "random": {"m": 3.5}}}, "bad random model directive: m must be int"),
        ({"model": {"kind": "iid", "random": {"m": 3, "seed": 4.2}}}, "bad random model directive: seed must be int"),
        ({"model": {"kind": "periodic", "random": {"m": 3, "q": 2.5}}}, "bad random model directive: q must be int"),
        # a factor at or below 1 would record every step instead of a geometric grid
        ({"grid": {"factor": 1}}, "grid.factor finite and above 1"),
        ({"grid": {"factor": 0.5}}, "grid.factor finite and above 1"),
        ({"grid": {"factor": -2}}, "grid.factor finite and above 1"),
        # a grid that would record nearly every step of a long horizon
        ({"t": 20000, "grid": {"factor": 1.0001}}, "MAX_GRID_POINTS = 1000"),
        ({"t": 10**12, "grid": {"dense_until": 10**12}}, "MAX_GRID_POINTS = 1000"),
        # the dual solve would square 1 + delta0 past the float range
        ({"delta0": 1e300}, "delta0 must be positive and at most 1e+150, got 1e+300"),
        # step 1's row of per-item weights would sum past the float range
        (
            {"model": {"kind": "corrupted", "random": {"m": 3, "seed": 4},
                       "corruption": {"kind": "decaying", "scale": 1e308}}},
            "bad random model directive: decaying corruption scale 1e+308 overflows",
        ),
        (
            {"market": {"generator": {"n": 0, "m": 3, "rank": 1}}},
            "bad market generator spec: n and m must be at least 1, got n=0, m=3",
        ),
        # for one agent 1 + delta0 rounds to 1, so the pacing box is empty
        (
            {"delta0": 1e-17, "market": {"generator": {"n": 1, "m": 3, "rank": 1}}},
            "delta0 1e-17 leaves an empty pacing box for n=1",
        ),
        # one rule and one message for the horizon, shared with `sample --t`
        ({"t": 0}, "horizon must be a positive integer, got 0"),
        ({"paths": 0}, "paths must be positive, got 0"),
        ({"market": {}}, "market spec needs either 'path' or 'generator'"),
        ({"model": {"kind": "markov", "base": [0.2, 0.3, 0.5], "transition": [[1.0]]}},
         "transition size must match the base distribution"),
        ({"model": {"kind": "markov", "base": [0.2, 0.3, 0.5]}}, "markov model requires a transition matrix"),
        ({"model": {"kind": "periodic", "period_dists": [0.2, 0.3, 0.5]}},
         "period_dists must be a 2-d matrix of at least one row"),
        ({"model": {"kind": "corrupted", "base": [0.2, 0.3, 0.5]}}, "corrupted model requires a corruption schedule"),
    ],
)
def test_malformed_config_exits_2(tmp_path, capsys, override, message):
    config = {
        "schema": 1,
        "market": {"generator": {"n": 2, "m": 3, "rank": 1, "noise": 0.1, "seed": 2}},
        "model": {"kind": "iid", "random": {"m": 3, "seed": 4}},
        "t": 150,
        "paths": 1,
        "base_seed": 5,
    }
    config.update(override)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("config error: ") and message in err


def test_solve_missing_file_exit_code(tmp_path, market_file):
    assert main(["solve", "--market", str(market_file), "--sequence", str(tmp_path / "no.json")]) == 2


def test_numerical_failure_exit_code(tmp_path, capsys):
    # periodic two-phase chain with unequal phase sizes: the stationary
    # solve inside the experiment cannot settle, a required-solve failure
    config = {
        "schema": 1,
        "market": {"generator": {"n": 2, "m": 3, "rank": 1, "noise": 0.1, "seed": 2}},
        "model": {
            "kind": "markov",
            "base": [1 / 3, 1 / 3, 1 / 3],
            "transition": [[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
            "seed": 0,
        },
        "t": 20,
        "paths": 1,
        "base_seed": 5,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("numerical failure: ")


MARKET_2x3 = {"n": 2, "m": 3, "valuations": [[1.0, 0.5, 0.2], [0.3, 1.0, 0.6]]}
# valuations near 1e300, whose float64 Hessian sums overflow in the dual solve
MARKET_6x20_HUGE = {
    "n": 6,
    "m": 20,
    "valuations": ((np.random.default_rng(0).random((6, 20)) + 0.05) * 1e300).tolist(),
}
IID_3 = {"kind": "iid", "base": [0.2, 0.3, 0.5]}


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


def _sample(tmp_path, model):
    return ["sample", "--model", _write(tmp_path, "model.json", model), "--t", "20",
            "--out", str(tmp_path / "seq.json")]


def _solve(tmp_path, market=MARKET_2x3, items=(0, 1, 2)):
    seq = items if isinstance(items, str) else {"items": list(items)}
    return ["solve", "--market", _write(tmp_path, "market.json", market),
            "--sequence", _write(tmp_path, "seq.json", seq)]


def _summarize(tmp_path, value="0.5", metrics=METRIC_NAMES, extra=()):
    """summarize of a one-path CSV holding metrics, the first one's value
    at t = 1 given as value text, followed by the extra rows."""
    rows = ["model,path_id,metric,t,value"]
    rows += [f"iid,0,{name},1,{value if k == 0 else '0.5'}" for k, name in enumerate(metrics)]
    rows += extra
    return ["summarize", "--paths-csv", _write(tmp_path, "paths.csv", "\n".join(rows) + "\n"),
            "--out", str(tmp_path / "agg.csv")]


def _run(tmp_path, market_file=None, model=None, **fields):
    config = {
        "schema": 1,
        "market": {"path": "market.json"},
        "model": model or IID_3,
        "t": 50,
        "paths": 1,
        **fields,
    }
    if market_file is not None:
        _write(tmp_path, "market.json", market_file)
    return ["run", "--config", _write(tmp_path, "config.json", config),
            "--out", str(tmp_path / "out")]


@pytest.mark.parametrize(
    "argv, message",
    [
        (lambda p: _sample(p, {"base": [0.5, 0.5]}), "model spec must be an object with a 'kind'"),
        (
            lambda p: _sample(p, {"kind": "markov", "base": [0.5, 0.5], "transition": [[0.5, 0.5]]}),
            "transition matrix must be square",
        ),
        (
            lambda p: _sample(
                p, {"kind": "corrupted", "base": [0.5, 0.5], "corruption": {"scale": "z"}}
            ),
            "scale must be float",
        ),
        (lambda p: _sample(p, {**IID_3, "seed": 2.5}), "seed must be int, got 2.5"),
        (
            lambda p: _sample(p, {**IID_3, "kind": "corrupted", "corruption": {"scale": "inf"}}),
            "scale must be nonnegative and finite",
        ),
        (lambda p: _sample(p, {"kind": "periodic", "random": {"m": 3}}), "missing field 'q'"),
        # a budgeted target above every corner's headroom, in both model forms
        (
            lambda p: _sample(
                p, {"kind": "corrupted", "base": [0.5, 0.5],
                    "corruption": {"kind": "budgeted", "target": 0.7}}
            ),
            "bad model spec: corruption target 0.7 exceeds the headroom of every corner",
        ),
        (
            lambda p: _sample(
                p, {"kind": "corrupted", "random": {"m": 1},
                    "corruption": {"kind": "budgeted", "target": 0.5}}
            ),
            "bad random model directive: corruption target 0.5 exceeds the headroom",
        ),
        # a decaying scale whose first row sums past the float range, in both forms
        (
            lambda p: _sample(
                p, {"kind": "corrupted", "random": {"m": 4, "seed": 2},
                    "corruption": {"kind": "decaying", "scale": 1e308}}
            ),
            "bad random model directive: decaying corruption scale 1e+308 overflows",
        ),
        (
            lambda p: _sample(
                p, {**IID_3, "kind": "corrupted", "corruption": {"kind": "decaying", "scale": 1e308}}
            ),
            "bad model spec: decaying corruption scale 1e+308 overflows the row sum of m=3 items",
        ),
        (lambda p: _sample(p, "[1, 2"), "model is not valid JSON"),
        (lambda p: _sample(p, IID_3) + ["--t", "0"], "horizon must be a positive integer, got 0"),
        (lambda p: _solve(p, market={"n": 2, "valuations": [[1.0]]}), "missing field 'm'"),
        (lambda p: _solve(p, market={**MARKET_2x3, "n": 3}), "does not match n=3, m=3"),
        (
            lambda p: _solve(p, market={**MARKET_2x3, "budgets": [0.8, 0.2]}),
            "budgets must all be 1/n = 0.5: unequal budgets are not supported",
        ),
        (lambda p: _solve(p, items=(0, -1)), "item indices must be nonnegative"),
        (lambda p: _solve(p, items=(0.5, 1)), "items must be integer indices"),
        (lambda p: _solve(p, items=(0, 5)), "sequence references items outside the universe"),
        (lambda p: _solve(p, items=(2**63, 2**63 + 1)), "nonnegative 64-bit integers"),
        (lambda p: _solve(p, items="{}"), "bad sequence: missing field 'items'"),
        # documents that are not objects, refused as config and model documents are
        (lambda p: _solve(p, market=[1, 2]), "market must be a JSON object"),
        (lambda p: _solve(p, market=5), "market must be a JSON object"),
        (lambda p: _solve(p, market=None), "market must be a JSON object"),
        (lambda p: _solve(p, items="[1, 2]"), "sequence must be a JSON object"),
        (lambda p: _solve(p, items="5"), "sequence must be a JSON object"),
        (lambda p: _solve(p, items="null"), "sequence must be a JSON object"),
        # solve meets the library's delta0 and tol rules, before any output
        (lambda p: _solve(p) + ["--delta0", "-1"], "at most 1e+150, got -1.0"),
        (lambda p: _solve(p) + ["--delta0", "nan"], "at most 1e+150, got nan"),
        # a tenth of the width of MARKET_2x3's pacing box [1/4, 2]
        (lambda p: _solve(p) + ["--tol", "nan"], "tol must be positive and below 0.175, got nan"),
        (lambda p: _solve(p) + ["--tol", "inf"], "tol must be positive and below 0.175, got inf"),
        (lambda p: _solve(p) + ["--tol", "1e300"], "tol must be positive and below 0.175, got 1e+300"),
        (lambda p: _run(p, market_file="{not json"), "market is not valid JSON"),
        (lambda p: _run(p, market_file={"n": 2, "valuations": [[1.0]]}), "missing field 'm'"),
        (lambda p: _run(p), "market file not found"),
        (lambda p: _run(p, {**MARKET_2x3, "budgets": [0.8, 0.2]}), "budgets must all be 1/n"),
        (lambda p: _run(p, MARKET_2x3, {**IID_3, "seed": 2.5}), "seed must be int, got 2.5"),
        (lambda p: _run(p, MARKET_2x3, market={"path": 5}), "market path must be a string"),
        (lambda p: _run(p, MARKET_2x3, out=5), "out must be a string"),
        (lambda p: ["run", "--config", str(p)], "cannot read config file"),
        (
            lambda p: ["gen-market", "--n", "3", "--m", "4", "--rank", "2", "--noise", "-1",
                       "--out", str(p / "m.json")],
            "noise must be nonnegative",
        ),
        (
            lambda p: ["summarize", "--paths-csv", _write(p, "paths.csv", "a,b\n1,2\n"),
                       "--out", str(p / "agg.csv")],
            "missing field 'path_id'",
        ),
        (
            lambda p: ["summarize", "--paths-csv", str(p / "no.csv"), "--out", str(p / "agg.csv")],
            "No such file",
        ),
        (lambda p: _summarize(p, "nan"), "metric rel_beta_hs contains non-finite values"),
        (
            lambda p: _summarize(p, "-inf", METRIC_NAMES[::-1]),
            "metric baseline_rel_u_hs contains non-finite values",
        ),
        (lambda p: _summarize(p, metrics=METRIC_NAMES[:-2]), "has no rows for envy_max, baseline_rel_u_hs"),
        (lambda p: _summarize(p, metrics=()), "no rows found"),
        (lambda p: _summarize(p, extra=[f"iid,0,{METRIC_NAMES[1]},2,0.5"]),
         f"path 0 metric {METRIC_NAMES[1]} has a different grid"),
        # a later row used to overwrite the earlier one, and path 1 was
        # aggregated as the first row's model
        (
            lambda p: _summarize(p, extra=[f"iid,0,{METRIC_NAMES[0]},1,999.0"]),
            f"path 0 repeats the {METRIC_NAMES[0]} row at t=1",
        ),
        (
            lambda p: _summarize(p, extra=[f"markov,1,{name},1,0.5" for name in METRIC_NAMES]),
            "rows name more than one model: ['iid', 'markov']",
        ),
        (lambda p: _run(p, MARKET_2x3) + ["--threads", "-3"], "threads must be at least 1, got -3"),
        (lambda p: _solve(p) + ["--delta0", "1e300"], "at most 1e+150, got 1e+300"),
        # normalized against a base with a subnormal entry, the first row overflows
        (
            lambda p: _run(p, {"n": 2, "m": 2, "valuations": [[1, 0], [1, 1]]},
                           {"kind": "iid", "base": [1e-320, 1.0]}),
            "bad market: valuations must be finite and nonnegative",
        ),
        # the rank's range used to read [1, 0]
        (
            lambda p: ["gen-market", "--n", "0", "--m", "3", "--rank", "1", "--out", str(p / "m.json")],
            "n and m must be at least 1, got n=0, m=3",
        ),
        (
            lambda p: _solve(p, market={"n": 1, "m": 3, "valuations": [[1.0, 0.5, 0.2]]})
            + ["--delta0", "1e-17"],
            "delta0 1e-17 leaves an empty pacing box for n=1",
        ),
        # the overflowing Hessian used to leave the next stage's working set
        # empty, and the solve ended in an IndexError traceback
        (
            lambda p: _solve(p, market=MARKET_6x20_HUGE, items=[k % 20 for k in range(40)])
            + ["--out", str(p / "solution.json")],
            "overflow the dual solve in double precision",
        ),
        # a sequence's t used to be ignored, and the 3 items were solved
        (lambda p: _solve(p, items='{"t": 2, "items": [0, 1, 2]}'),
         "bad sequence: t=2 does not match the 3 items"),
    ],
)
def test_malformed_input_exits_2(tmp_path, capsys, argv, message):
    args = argv(tmp_path)
    files = sorted(tmp_path.rglob("*"))
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: ") and message in err
    # refused before any output is written
    assert sorted(tmp_path.rglob("*")) == files


@pytest.mark.parametrize("command", ["solve", "run"])
def test_failed_solve_prints_one_line(tmp_path, capsys, monkeypatch, command):
    # solve_dual warns of a failed solve, and the tests' warning filter would
    # raise that warning: the command line reports the failure once, as its
    # exit-3 line
    if command == "solve":
        # valuations of order 1e7 stop the continuation short
        rng = np.random.default_rng(13)
        v = (rng.random((9, 29)) + 0.05) * (rng.random((9, 29)) > 0.3) * 1e7
        market = {"n": 9, "m": 29, "valuations": v.tolist()}
        argv = _solve(tmp_path, market, rng.integers(0, 29, 200).tolist())
        expected = "numerical failure: hindsight solve failed: residual"
    else:
        # a tolerance no hindsight solve meets
        real = harness.hindsight_solution
        monkeypatch.setattr(
            harness, "hindsight_solution", lambda *a, **k: real(*a, **{**k, "tol": 1e-300})
        )
        argv = _run(tmp_path, MARKET_2x3, paths=2)
        expected = "numerical failure: hindsight solve failed on path 0"
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(expected)


def test_largest_delta0_runs(tmp_path):
    assert main(_run(tmp_path, MARKET_2x3, delta0=MAX_DELTA0)) == 0
    assert main(_solve(tmp_path) + ["--delta0", repr(MAX_DELTA0)]) == 0


def test_run_reads_market_file_relative_to_config(tmp_path):
    assert main(_run(tmp_path, MARKET_2x3)) == 0
    assert (tmp_path / "out" / "paths.csv").exists()


def test_run_writes_config_out_relative_to_config(tmp_path, monkeypatch):
    # a config's out, like its market.path, is relative to the config's
    # directory; --out stays relative to the working directory
    sub = tmp_path / "sub"
    sub.mkdir()
    _run(sub, MARKET_2x3, out="res")
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--config", str(Path("sub") / "config.json")]
    assert main(argv) == 0
    assert (sub / "res" / "paths.csv").exists() and not (tmp_path / "res").exists()
    assert main(argv + ["--out", "cli"]) == 0
    assert (tmp_path / "cli" / "paths.csv").exists()


def test_run_reads_uniform_budgets_of_older_market_files(tmp_path):
    # gen-market used to write each agent's budget, 1/n; such a file runs
    # as the same market without them
    doc = market_to_dict(generate_market(3, 3, rank=2, noise=0.1, seed=5))
    outputs = []
    for market in (doc, {**doc, "budgets": [1.0 / 3] * 3}):
        assert main(_run(tmp_path, market)) == 0
        out = tmp_path / "out"
        outputs.append([(out / name).read_bytes() for name in ("paths.csv", "aggregate.csv")])
    assert outputs[0] == outputs[1]


def test_sample_accepts_random_directive(tmp_path):
    model = {"kind": "periodic", "random": {"m": 3, "q": 2, "seed": 1}}
    assert main(_sample(tmp_path, model)) == 0
    items = json.loads((tmp_path / "seq.json").read_text())["items"]
    assert len(items) == 20 and set(items) <= {0, 1, 2}


def test_numeric_strings_read_as_numbers_in_every_model_form(tmp_path):
    # one field reader: "2" is read as 2.0 in the explicit and the random form
    explicit = {"kind": "corrupted", "base": [0.5, 0.5], "corruption": {"scale": "2"}}
    directive = {"kind": "corrupted", "random": {"m": 2}, "corruption": {"scale": "2"}}
    for model in (explicit, directive):
        assert main(_sample(tmp_path, model)) == 0


FILE_COMMANDS = ("sample", "solve", "gen-market", "summarize")


@pytest.mark.parametrize(
    "command, taken, message",
    [pytest.param(c, None, "does not exist", id=c) for c in FILE_COMMANDS]
    + [pytest.param(c, "directory", "is a directory", id=f"{c}-directory") for c in FILE_COMMANDS]
    # a run creates its output directory, with its parents, after the work
    + [
        pytest.param("run", "file", "is a file", id="run-file"),
        pytest.param("run-config", "file", "is a file", id="run-config-file"),
        pytest.param("run", "parent-file", "is a file", id="run-parent-file"),
    ],
)
def test_missing_out_directory_exits_2_before_work(tmp_path, capsys, command, taken, message):
    out = tmp_path / "missing" / "out.json"
    if taken is not None:
        out = tmp_path / "taken"
        out.mkdir() if taken == "directory" else out.write_text("kept")
        out = out / "sub" if taken == "parent-file" else out
    out = str(out)
    argv = {
        "sample": lambda: _sample(tmp_path, IID_3)[:-1] + [out],
        "solve": lambda: _solve(tmp_path) + ["--out", out],
        "gen-market": lambda: ["gen-market", "--n", "3", "--m", "4", "--rank", "2", "--out", out],
        # the paths CSV does not exist either: the output check comes first
        "summarize": lambda: ["summarize", "--paths-csv", str(tmp_path / "no.csv"), "--out", out],
        "run": lambda: _run(tmp_path, MARKET_2x3)[:-1] + [out],
        "run-config": lambda: _run(tmp_path, MARKET_2x3, out=out)[:-2],
    }[command]()
    files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("config error: output ") and message in err
    assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == files
    assert sorted(tmp_path.rglob("*")) == sorted(files) + [tmp_path / "taken"] * (taken == "directory")


def test_errors_define_one_type_per_exit_code():
    defined = {
        value
        for value in vars(errors).values()
        if isinstance(value, type) and issubclass(value, FairpaceError) and value is not FairpaceError
    }
    assert defined == {ConfigError, NoConvergence}


def _failing_summarize(monkeypatch, tmp_path, exc):
    def fail(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "summarize", fail)
    return ["summarize", "--paths-csv", str(tmp_path / "paths.csv"), "--out", str(tmp_path / "agg.csv")]


@pytest.mark.parametrize(
    "error, code, prefix",
    [(ConfigError, 2, "config error: "), (NoConvergence, 3, "numerical failure: ")],
)
def test_each_error_type_exits_with_its_code(monkeypatch, tmp_path, capsys, error, code, prefix):
    assert main(_failing_summarize(monkeypatch, tmp_path, error("what went wrong"))) == code
    assert capsys.readouterr().err == f"{prefix}what went wrong\n"


@pytest.mark.parametrize("exc", [FairpaceError("bare base"), ValueError("bug"), IndexError("bug")])
def test_other_exceptions_propagate(monkeypatch, tmp_path, capsys, exc):
    # anything but the two exit-code types is a bug and keeps its traceback
    with pytest.raises(type(exc)):
        main(_failing_summarize(monkeypatch, tmp_path, exc))
    assert capsys.readouterr().err == ""


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(code, **env):
    """Standard output of a fresh interpreter running code, with fairpace
    importable and the BLAS thread variables unset unless given in env."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    base["PYTHONPATH"] = str(Path(fairpace.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env={**base, **env}, capture_output=True, text=True, check=True
    )
    return done.stdout.split()


def test_cli_holds_blas_to_one_thread_unless_set():
    show = f"import os; print(*(os.environ.get(k) for k in {BLAS_VARIABLES!r}))"
    assert run_python("import fairpace.cli; " + show) == ["1", "1", "1"]
    given = run_python("import fairpace.cli; " + show, OPENBLAS_NUM_THREADS="3", OMP_NUM_THREADS="2")
    assert given == ["3", "2", "1"]
    # the library alone leaves the environment as it is
    assert run_python("import fairpace.harness; " + show) == ["None", "None", "None"]


def test_cli_import_leaves_dual_averaging_unloaded():
    # only the tests' equivalence and regret checks use it
    loaded = "import sys, fairpace.cli; print('fairpace.dual_averaging' in sys.modules)"
    assert run_python(loaded) == ["False"]


def test_cli_import_leaves_dataclasses_unloaded():
    # the library's types are NamedTuples and plain classes: building
    # dataclasses cost every run start-up time
    loaded = "import sys, fairpace.cli, fairpace.harness; print('dataclasses' in sys.modules)"
    assert run_python(loaded) == ["False"]
