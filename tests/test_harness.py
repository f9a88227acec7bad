import concurrent.futures
import csv
import json
import os

import numpy as np
import pytest

from fairpace import harness
from fairpace.errors import ConfigError
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
from fairpace.inputs import reference_distribution, sample_sequences
from fairpace.market import ReferenceDistribution, market_to_dict, normalize_valuations
from fairpace.metrics import METRIC_NAMES, MetricSeries, recording_grid
from fairpace.prng import derive_path_seed, make_generator
from tests.conftest import traced_peak


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

    def test_redraws_rows_without_expected_value(self):
        # with noise far above the factors and the reference on item 0,
        # about half the first draw's rows value item 0 at 0; each is
        # redrawn until it is positive there, the same way for a seed
        ref = ReferenceDistribution([1.0, 0.0, 0.0, 0.0])
        rng = make_generator(0)
        first = rng.random((40, 1)) @ rng.random((4, 1)).T + 50.0 * (rng.random((40, 4)) - 0.5)
        assert np.count_nonzero(first[:, 0] <= 0) == 20
        inst = generate_market(40, 4, rank=1, noise=50.0, seed=0, ref=ref)
        assert np.all(inst.valuations[:, 0] == 1.0)
        again = generate_market(40, 4, rank=1, noise=50.0, seed=0, ref=ref)
        assert np.array_equal(inst.valuations, again.valuations)

    @pytest.mark.parametrize(
        "n, m, rank, noise, seed, probs",
        [
            (4, 5, 1, 0.0, 3, None),
            (5, 6, 2, 0.1, 11, None),
            (3, 4, 2, 0.2, 1, [0.7, 0.1, 0.1, 0.1]),
            (30, 70, 10, 0.1, 7, None),
            (100, 1500, 10, 0.1, 1, None),
            (40, 4, 1, 50.0, 0, [1.0, 0.0, 0.0, 0.0]),
        ],
    )
    def test_matches_out_of_place_expression(self, n, m, rank, noise, seed, probs):
        # the market built in the noise's buffer is, bit for bit, the one of
        # max(0, A B^T + noise E) with each row redrawn the same way,
        # the last case's 20 redrawn rows included
        ref = ReferenceDistribution(np.full(m, 1.0 / m) if probs is None else probs)
        rng = make_generator(seed)
        A, B = rng.random((n, rank)), rng.random((m, rank))
        V = np.maximum(0.0, A @ B.T + noise * (rng.random((n, m)) - 0.5))
        while np.any(V @ ref.probs <= 0):
            bad = np.flatnonzero(V @ ref.probs <= 0)
            A_new = rng.random((bad.size, rank))
            V[bad] = np.maximum(0.0, A_new @ B.T + noise * (rng.random((bad.size, m)) - 0.5))
        inst = generate_market(n, m, rank=rank, noise=noise, seed=seed, ref=ref)
        assert np.array_equal(inst.valuations, normalize_valuations(V, ref))

    def test_peak_holds_two_matrices(self):
        # the noise's buffer becomes V, and normalizing it makes a second
        # (n, m) array that the instance keeps; nothing else of that size is
        # live at once (the out-of-place build peaked at 4.86 MB here)
        inst, peak = traced_peak(generate_market, 100, 1500, rank=10, noise=0.1, seed=1)
        assert peak <= 1.1 * 2 * inst.valuations.nbytes
        assert inst.valuations.flags.owndata and not inst.valuations.flags.writeable

    def test_invalid_rank(self):
        with pytest.raises(ConfigError, match=r"rank must lie in \[1, 3\]"):
            generate_market(3, 4, rank=5)
        with pytest.raises(ConfigError, match=r"rank must lie in \[1, 3\]"):
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

    def test_markets_keep_the_normalized_array(self, tmp_path, monkeypatch):
        # a generated and a loaded market both hand normalize_valuations'
        # fresh result over read-only, and the instance keeps it uncopied
        made = []
        normalize = harness.normalize_valuations
        monkeypatch.setattr(
            harness, "normalize_valuations", lambda *args: made.append(normalize(*args)) or made[-1]
        )
        generated = resolve_market(toy_config(), ReferenceDistribution(np.full(4, 0.25)))
        assert generated.valuations is made[-1]
        path = tmp_path / "market.json"
        path.write_text(json.dumps(market_to_dict(generated)))
        cfg = toy_config(market={"path": str(path)})
        loaded = resolve_market(cfg, reference_distribution(resolve_model(cfg)))
        assert loaded.valuations is made[-1]
        assert not loaded.valuations.flags.writeable

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
        with pytest.raises(ConfigError, match="disagree on times"):
            summarize([a, b])
        c = MetricSeries(times=np.array([1, 2]), values={"y": np.array([1.0, 2.0])})
        with pytest.raises(ConfigError, match="disagree on times"):
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
        # Markov path of t = 20000), set up and solved by the run's own
        # _set_up and _run_paths, so warm-started from the reference
        # optimum. The solver before the warm start, the tangent predictor
        # and the loose early stages took parent_newton_steps Newton steps
        # on it
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
        set_up = harness._set_up(cfg, 1e-8)[:4]
        ((_, counts, _),) = harness._run_paths(cfg, *set_up, np.array([cfg.t]), 1e-8, range(1))
        assert counts["newton_steps"] < parent_newton_steps

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

    def test_large_markets_split_their_batches(self, tmp_path, monkeypatch):
        # a batch's envy sums hold paths x n^2 doubles: at n = 300 the byte
        # budget keeps two paths in a batch, and the run writes the CSVs of
        # a run with one path per batch
        n = 300
        assert harness.LOCKSTEP_ENVY_BYTES // (8 * n * n) == 2
        cfg = toy_config(
            # rank 1 without noise keeps the 300-agent solves quick
            market={"generator": {"n": n, "m": 3, "rank": 1, "noise": 0.0, "seed": 5}},
            model={"kind": "iid", "random": {"m": 3, "seed": 7}},
            t=200,
            paths=3,
        )
        sizes = []
        run_paths = harness._run_paths
        monkeypatch.setattr(
            harness, "_run_paths", lambda *args: sizes.append(len(args[-1])) or run_paths(*args)
        )
        run_experiment(cfg, out_dir=str(tmp_path / "split"))
        assert sizes == [2, 1]
        monkeypatch.setattr(harness, "LOCKSTEP_PATHS", 1)
        run_experiment(cfg, out_dir=str(tmp_path / "single"))
        assert sizes == [2, 1, 1, 1, 1]
        for name in ("paths.csv", "aggregate.csv"):
            assert (tmp_path / "split" / name).read_bytes() == (
                tmp_path / "single" / name
            ).read_bytes()

    def test_batch_peak_is_flat_in_the_horizon(self, monkeypatch):
        # a batch is scored while it paces, so above its sequences it keeps
        # no (paths, t) or (paths, grid, n) array: two paths' int64 winners
        # alone would add 2.9 MB from t = 2e4 to 2e5
        n, m, P = 20, 30, 2
        cfg = toy_config(
            market={"generator": {"n": n, "m": m, "rank": 5, "noise": 0.1, "seed": 4}},
            model={"kind": "iid", "random": {"m": m, "seed": 3}},
            paths=P,
            base_seed=8,
        )
        model, ref, inst, star, _ = harness._set_up(cfg, 1e-8)
        seeds = [derive_path_seed(cfg.base_seed, p) for p in range(P)]
        peaks = []
        for t in (1000, 20_000, 200_000):  # the first warms up
            seqs = sample_sequences(model, t, seeds)
            # sampled outside the trace, so the peak is that above them
            monkeypatch.setattr(harness, "sample_sequences", lambda *args: seqs)
            args = (cfg._replace(t=t), model, ref, inst, star, recording_grid(t), 1e-8, range(P))
            peaks.append(traced_peak(harness._run_paths, *args)[1])
        assert peaks[2] < peaks[1] + 64 * 1024, peaks


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
