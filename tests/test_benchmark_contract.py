"""The library calls the benchmark's probe makes, run end to end on a tiny config.

`perfbench/probe.py` imports harness, inputs, eg, pace, metrics and prng
functions by name; this runs its `setup` and `trace` modes as the benchmark
does, so a change that breaks one of those calls fails here, and checks the
traced replay's files against `fairpace run`'s. The text that
`perfbench/selftest.py` patches into copies of the library is checked too.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROBE = ROOT / "perfbench" / "probe.py"

CONFIG = {
    "schema": 1,
    "market": {"generator": {"n": 5, "m": 10, "rank": 2, "noise": 0.1, "seed": 1}},
    "model": {
        "kind": "corrupted",
        "random": {"m": 10, "seed": 2},
        "corruption": {"kind": "budgeted", "target": 0.1},
    },
    "t": 300,
    "paths": 2,
    "base_seed": 5,
}


def _child(tmp_path, *args):
    """The last stdout line of `python *args --config <CONFIG>`, run as the benchmark runs it."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    proc = subprocess.run(
        [sys.executable, *args, "--config", str(config)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def _probe(tmp_path, *args):
    return json.loads(_child(tmp_path, str(PROBE), *args))


def test_probe_setup_checks_the_claim(tmp_path):
    result = _probe(tmp_path, "setup", "--seconds", "0", "--repeats", "1")
    assert len(result["setup_s"]) >= 1
    assert result["claim"]["equivalence_with_da"] is True
    assert result["claim"]["beta_in_box"] is True


def test_probe_trace_writes_the_run_outputs(tmp_path):
    out = tmp_path / "out"
    result = _probe(tmp_path, "trace", "--out", str(out))
    assert sorted(p.name for p in out.iterdir()) == ["aggregate.csv", "paths.csv", "summary.json"]
    assert len(result["hindsight"]) == CONFIG["paths"]
    # the traced replay must write what `fairpace run` writes, byte for byte:
    # `perfbench/run.py --trace 1` fails a run whose files differ
    run_out = tmp_path / "run"
    _child(tmp_path, "-m", "fairpace.cli", "run", "--out", str(run_out), "--threads", "1")
    for name in ("paths.csv", "aggregate.csv"):
        assert (out / name).read_bytes() == (run_out / name).read_bytes(), name


# the function of the library that each perfbench/selftest.py case breaks:
# the case patches the first occurrence of its literal, so that occurrence
# must lie there
PATCHED_IN = {
    "test_non_finite_value": "write_paths_csv",
    "test_missing_rows": "write_paths_csv",
    "test_nonzero_exit": "_cmd_run",
    "test_claim_broken": "composite_argmin",
    "test_replay_differs": "_hindsight",
}


def _enclosing_function(source, offset):
    """Name of the innermost function whose lines hold source[offset]."""
    line = source.count("\n", 0, offset) + 1
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and node.lineno <= line <= node.end_lineno
    ][-1]


def test_selftest_patches_still_apply():
    # perfbench/selftest.py breaks copies of the library by replacing literal
    # text; a literal that no longer occurs, or whose first occurrence moved
    # to another function, makes that slow self-test fail or test nothing,
    # so each one is checked here against its module
    tree = ast.parse((ROOT / "perfbench" / "selftest.py").read_text())
    patches = {
        case.name: call
        for case in ast.walk(tree)
        if isinstance(case, ast.FunctionDef)
        for call in ast.walk(case)
        if isinstance(call, ast.Call) and getattr(call.func, "attr", None) == "run_broken"
    }
    assert set(patches) == set(PATCHED_IN)
    for case, call in patches.items():
        module, old = (ast.literal_eval(arg) for arg in call.args[:2])
        source = (ROOT / "src" / "fairpace" / module).read_text()
        assert old in source, (module, old)
        assert _enclosing_function(source, source.index(old)) == PATCHED_IN[case], (module, old)
