import concurrent.futures
import csv
import json
import os

import numpy as np
import pytest

from fairpace import harness
from fairpace.errors import ConfigError, GridMismatch, InvalidRank
from fairpace.harness import (
    config_from_dict,
    config_hash,
    generate_market,
    load_config,
    read_paths_csv,
    resolve_market,
    resolve_model,
    run_experiment,
    summarize,
)
from fairpace.eg import hindsight_solution, market_problem, solve_dual
from fairpace.inputs import reference_distribution, sample_sequences
from fairpace.market import ReferenceDistribution, market_to_dict
from fairpace.metrics import METRIC_NAMES, MetricSeries
from fairpace.prng import derive_path_seed


def toy_config(**overrides):
    doc = {
        "schema": 1,
        "market": {"generator": {"n": 3, "m": 4, "rank": 2, "noise": 0.1, "seed": 5}},
        "model": {"kind": "iid", "random": {"m": 4, "seed": 7}},
        "t": 300,
        "paths": 2,
        "delta0": 1.0,
        "base_seed": 99,
    }
    doc.update(overrides)
    return config_from_dict(doc)


class TestConfig:
    def test_requires_schema(self):
        with pytest.raises(ConfigError):
            config_from_dict({"market": {}, "model": {}, "t": 10, "paths": 1})

    def test_requires_core_fields(self):
        with pytest.raises(ConfigError):
            config_from_dict({"schema": 1, "market": {}, "t": 10, "paths": 1})

    def test_rejects_nonpositive_dimensions(self):
        with pytest.raises(ConfigError):
            toy_config(t=0)

    def test_integral_floats_are_integers(self):
        cfg = toy_config(t=300.0, paths=2.0, base_seed=-3.0)
        assert (cfg.t, cfg.paths, cfg.base_seed) == (300, 2, -3)
        assert all(type(v) is int for v in (cfg.t, cfg.paths, cfg.base_seed))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "market": {"generator": {"n": 2, "m": 2, "rank": 1, "seed": 0}},
                    "model": {"kind": "iid", "random": {"m": 2, "seed": 1}},
                    "t": 10,
                    "paths": 1,
                }
            )
        )
        cfg = load_config(path)
        assert cfg.t == 10
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")

    def test_hash_is_order_insensitive(self):
        a = {"x": 1, "y": [1, 2]}
        b = {"y": [1, 2], "x": 1}
        assert config_hash(a) == config_hash(b)


class TestGenerateMarket:
    def test_rank_one_rows_proportional(self):
        inst = generate_market(4, 5, rank=1, noise=0.0, seed=3)
        v = inst.valuations
        ratios = v / v[0]
        assert np.allclose(ratios, ratios[:, :1])

    def test_deterministic(self):
        a = generate_market(5, 6, rank=2, noise=0.1, seed=11)
        b = generate_market(5, 6, rank=2, noise=0.1, seed=11)
        assert np.array_equal(a.valuations, b.valuations)

    def test_rows_normalized_against_reference(self):
        ref = ReferenceDistribution(np.array([0.7, 0.1, 0.1, 0.1]))
        inst = generate_market(3, 4, rank=2, noise=0.2, seed=1, ref=ref)
        assert np.allclose(inst.valuations @ ref.probs, 1.0, atol=1e-12)

    def test_invalid_rank(self):
        with pytest.raises(InvalidRank):
            generate_market(3, 4, rank=5)
        with pytest.raises(InvalidRank):
            generate_market(3, 4, rank=0)

    def test_negative_or_non_finite_noise(self):
        for noise in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                generate_market(3, 4, rank=2, noise=noise)

    def test_positive_rows_always(self):
        for seed in range(20):
            inst = generate_market(4, 3, rank=1, noise=0.5, seed=seed)
            assert np.all(inst.valuations.max(axis=1) > 0)


class TestResolvers:
    def test_market_from_file(self, tmp_path):
        inst = generate_market(2, 3, rank=1, seed=4)
        path = tmp_path / "market.json"
        path.write_text(json.dumps(market_to_dict(inst)))
        cfg = toy_config(market={"path": str(path)})
        model = resolve_model(cfg)
        ref = reference_distribution(model)
        # model has m=4 but market has m=3: dimension error surfaces on use
        with pytest.raises(Exception):
            resolve_market(cfg, ref)
        cfg2 = toy_config(
            market={"path": str(path)}, model={"kind": "iid", "random": {"m": 3, "seed": 1}}
        )
        loaded = resolve_market(cfg2, reference_distribution(resolve_model(cfg2)))
        assert loaded.n == 2

    def test_model_explicit_arrays(self):
        cfg = toy_config(model={"kind": "iid", "base": [0.25, 0.25, 0.25, 0.25], "seed": 2})
        model = resolve_model(cfg)
        assert model.kind == "iid"
        assert np.allclose(model.base.probs, 0.25)

    def test_model_bad_spec(self):
        with pytest.raises(ConfigError):
            resolve_model(toy_config(model={"kind": "nope", "random": {"m": 3}}))
        with pytest.raises(ConfigError):
            resolve_model(toy_config(model={"random": {"m": 3}}))


class TestSummarize:
    def _series(self, values, path_id=0):
        return MetricSeries(
            times=np.array([1, 2]),
            values={"x": np.asarray(values, dtype=np.float64)},
            metadata={"path_id": path_id},
        )

    def test_identical_series_zero_stderr(self):
        report = summarize([self._series([1.0, 2.0]), self._series([1.0, 2.0], 1)])
        assert np.allclose(report.means["x"], [1.0, 2.0])
        assert np.allclose(report.stderrs["x"], 0.0)

    def test_two_values_mean_and_stderr(self):
        report = summarize([self._series([1.0, 1.0]), self._series([3.0, 3.0], 1)])
        assert np.allclose(report.means["x"], 2.0)
        # sd = sqrt(2), stderr = sd / sqrt(2) = 1
        assert np.allclose(report.stderrs["x"], 1.0)

    def test_single_series_stderr_absent(self):
        report = summarize([self._series([1.0, 2.0])])
        assert report.stderrs is None
        assert report.terminal()["x"]["stderr"] is None

    def test_grid_mismatch(self):
        a = self._series([1.0, 2.0])
        b = MetricSeries(times=np.array([1, 3]), values={"x": np.array([1.0, 2.0])})
        with pytest.raises(GridMismatch):
            summarize([a, b])
        c = MetricSeries(times=np.array([1, 2]), values={"y": np.array([1.0, 2.0])})
        with pytest.raises(GridMismatch):
            summarize([a, c])


class TestRunExperiment:
    def test_reports_and_files(self, tmp_path):
        cfg = toy_config()
        report = run_experiment(cfg, out_dir=str(tmp_path))
        assert (tmp_path / "paths.csv").exists()
        assert (tmp_path / "aggregate.csv").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["provenance"]["config_hash"] == config_hash(cfg.raw)
        assert len(summary["provenance"]["path_seeds"]) == 2
        assert report.paths == 2

    def test_summary_reports_solve_timings(self, tmp_path, monkeypatch):
        # process seconds of the reference solve and of each hindsight solve,
        # in path order, beside the solver block; a pooled run times its
        # hindsight solves in the workers
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        cfg = toy_config()
        for threads in (1, 2):
            out = tmp_path / str(threads)
            report = run_experiment(cfg, threads=threads, out_dir=str(out))
            summary = json.loads((out / "summary.json").read_text())
            timings = summary["timings"]
            assert timings == json.loads(json.dumps(report.timings))
            assert set(timings) == {"reference_solve_s", "hindsight_solve_s"}
            assert len(timings["hindsight_solve_s"]) == cfg.paths
            for seconds in [timings["reference_solve_s"], *timings["hindsight_solve_s"]]:
                assert isinstance(seconds, float) and 0.0 <= seconds < 60.0
            assert "timings" not in summary["solver"]

    def test_summary_reports_solver_counts(self, tmp_path):
        cfg = toy_config()
        report = run_experiment(cfg, out_dir=str(tmp_path))
        solver = json.loads((tmp_path / "summary.json").read_text())["solver"]
        assert solver == json.loads(json.dumps(report.solver))
        assert len(solver["hindsight"]) == cfg.paths
        for counts in [solver["reference"], *solver["hindsight"]]:
            assert set(counts) == {"newton_steps", "evaluations", "residual", "certified_mu"}
            assert 0 < counts["newton_steps"] < counts["evaluations"]
            assert 0.0 <= counts["residual"] <= 1e-7
            assert counts["certified_mu"] is None or counts["certified_mu"] > 0
        with open(tmp_path / "paths.csv") as fh:
            assert fh.readline().strip() == "model,path_id,metric,t,value"

    def test_paper_hindsight_solve_steps(self):
        # a hindsight problem of the paper's shape (n = 100, m = 300, one
        # Markov path of t = 20000), built as run_experiment builds it and
        # warm-started from the reference optimum. The solver before the
        # warm start, the tangent predictor and the loose early stages took
        # parent_newton_steps Newton steps on it
        parent_newton_steps = 56
        cfg = config_from_dict(
            {
                "schema": 1,
                "market": {"generator": {"n": 100, "m": 300, "rank": 10, "noise": 0.1, "seed": 1}},
                "model": {"kind": "markov", "random": {"m": 300, "seed": 2}},
                "t": 20000,
                "paths": 1,
                "base_seed": 5,
            }
        )
        model = resolve_model(cfg)
        ref = reference_distribution(model)
        instance = resolve_market(cfg, ref)
        star = solve_dual(market_problem(instance, ref, cfg.delta0))
        (seq,) = sample_sequences(model, cfg.t, [derive_path_seed(cfg.base_seed, 0)])
        hs = hindsight_solution(instance, seq, cfg.delta0, warm=(star.beta_hat, ref.probs))
        assert hs.converged
        assert hs.iterations < parent_newton_steps

    def test_error_improves_from_start(self):
        cfg = toy_config(t=400)
        report = run_experiment(cfg)
        rel = report.means["rel_beta_hs"]
        assert rel[-1] < rel[0]

    def test_reproducible_byte_identical(self, tmp_path):
        cfg = toy_config()
        run_experiment(cfg, out_dir=str(tmp_path / "a"))
        run_experiment(cfg, out_dir=str(tmp_path / "b"))
        for name in ("paths.csv", "aggregate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_parallel_matches_serial(self, tmp_path, monkeypatch):
        # both counts split unevenly over two workers: 2 + 1 and 3 + 2 paths,
        # on two CPUs whatever the host has
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        for paths in (3, 5):
            cfg = toy_config(paths=paths)
            serial, par = tmp_path / f"serial{paths}", tmp_path / f"par{paths}"
            run_experiment(cfg, threads=1, out_dir=str(serial))
            run_experiment(cfg, threads=2, out_dir=str(par))
            for name in ("paths.csv", "aggregate.csv"):
                assert (serial / name).read_bytes() == (par / name).read_bytes()

    def test_workers_capped_at_usable_cpus(self, tmp_path, monkeypatch):
        # a stand-in pool records its size and maps in this process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = toy_config(paths=5)
        run_experiment(cfg, out_dir=str(tmp_path / "serial"))
        for cpus, expected in ((2, [2]), (1, [2]), (8, [2, 5])):
            monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            run_experiment(cfg, threads=64, out_dir=str(out))
            assert sizes == expected
            for name in ("paths.csv", "aggregate.csv"):
                assert (out / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

    def test_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert harness._usable_cpus() == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 7)
        assert harness._usable_cpus() == 7
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert harness._usable_cpus() == 1

    def test_batch_cap_matches_one_batch(self, tmp_path, monkeypatch):
        cfg = toy_config(paths=5)
        run_experiment(cfg, out_dir=str(tmp_path / "one"))
        monkeypatch.setattr(harness, "LOCKSTEP_PATHS", 2)
        run_experiment(cfg, out_dir=str(tmp_path / "capped"))
        for name in ("paths.csv", "aggregate.csv"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "capped" / name
            ).read_bytes()


class TestCsvRoundTrip:
    def test_paths_csv_round_trip(self, tmp_path):
        cfg = toy_config()
        report = run_experiment(cfg, out_dir=str(tmp_path))
        series_list = read_paths_csv(tmp_path / "paths.csv")
        assert len(series_list) == 2
        assert [s.metadata["model"] for s in series_list] == ["iid", "iid"]
        again = summarize(series_list)
        for name in report.means:
            assert np.allclose(again.means[name], report.means[name])

    def test_csv_rows_parse_into_schema(self, tmp_path):
        cfg = toy_config()
        run_experiment(cfg, out_dir=str(tmp_path))
        with open(tmp_path / "paths.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["model", "path_id", "metric", "t", "value"]
            for row in reader:
                int(row["path_id"])
                int(row["t"])
                float(row["value"])
                assert row["model"] == "iid"
        with open(tmp_path / "aggregate.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            assert reader.fieldnames == ["model", "metric", "t", "mean", "stderr"]
            for row in reader:
                float(row["mean"])
                float(row["stderr"])

    def test_writers_match_csv_writer(self, tmp_path):
        # the joined rows are byte for byte those of one csv.writer row per
        # value: for a model name csv.writer quotes, and with one path for
        # the empty stderr column
        rng = np.random.default_rng(3)
        times = np.array([1, 2, 5, 40])
        model = 'odd, "quoted" model'

        def series(path_id):
            values = {
                name: rng.normal(size=4) * 10.0 ** rng.integers(-100, 100, size=4)
                for name in METRIC_NAMES
            }
            values[METRIC_NAMES[0]][:2] = (1.0, -0.0)
            return MetricSeries(times=times, values=values, metadata={"path_id": path_id})

        for series_list in ([series(0), series(3)], [series(7)]):
            report = summarize(series_list)
            harness.write_paths_csv(tmp_path / "paths.csv", model, series_list)
            harness.write_aggregate_csv(tmp_path / "aggregate.csv", model, report)
            with open(tmp_path / "paths_ref.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["model", "path_id", "metric", "t", "value"])
                for s in series_list:
                    for name in METRIC_NAMES:
                        for tau, v in zip(s.times, s.values[name]):
                            path_id = s.metadata["path_id"]
                            writer.writerow([model, path_id, name, int(tau), repr(float(v))])
            with open(tmp_path / "aggregate_ref.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["model", "metric", "t", "mean", "stderr"])
                for name in METRIC_NAMES:
                    for k, tau in enumerate(report.times):
                        err = report.stderrs and repr(float(report.stderrs[name][k]))
                        mean = repr(float(report.means[name][k]))
                        writer.writerow([model, name, int(tau), mean, err or ""])
            for name in ("paths", "aggregate"):
                written = (tmp_path / f"{name}.csv").read_bytes()
                assert written == (tmp_path / f"{name}_ref.csv").read_bytes()
            assert (report.stderrs is None) == (len(series_list) == 1)
            assert [s.metadata["model"] for s in read_paths_csv(tmp_path / "paths.csv")] == [
                model
            ] * len(series_list)
