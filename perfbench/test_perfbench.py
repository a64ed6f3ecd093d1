"""Self-checks of the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_on_one_seed(name):
    first, second = (
        _result(_run("--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    )
    assert first["correct"] and second["correct"]
    units = {k: v["unit"] for k, v in first["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [
        k for k in first["metrics"]
        if k.endswith(".calls") or k == "polygons.interior_points.points"
    ]
    for key in counts:
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key
    if name in ("corpus-analyze", "large-analyze"):
        ops = first["metrics"]["trace.ops"]["value"]
        assert first["metrics"]["severi.build_profile.calls"]["value"] == 3 * ops


def test_untraced_run_reports_every_end_to_end_metric():
    res = _result(_run("--workload", "verify-battery", "--seed", "1", "--seconds", "1"))
    assert res["correct"] and res["failed"] == 0
    wl = workloads.VerifyBattery()
    assert res["attempted"] == run.MIN_ROUNDS * wl.round_size * wl.ops_per_call
    for spec in SPEC["end_to_end"]:
        assert res["metrics"][spec["name"]]["unit"] == spec["unit"]
        assert res["metrics"][spec["name"]]["value"] > 0


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = _run("--workload", "normal-forms", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_rebinds_every_name_and_restores_it():
    from severi_lattice.lattices import AffineLattice2
    from severi_lattice.polygons import LatticePolygon

    def snapshot():
        owners = tracer_mod._package_modules() + [LatticePolygon, AffineLattice2]
        return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}

    originals = [
        tracer_mod._find_function(layer, name)
        for layer, names in tracer_mod.FUNCTIONS.items()
        for name in names
    ]
    before = snapshot()
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert t.missing == []
        for mod in tracer_mod._package_modules():
            for key, val in vars(mod).items():
                assert not any(val is f for f in originals), (mod.__name__, key)
    finally:
        t.uninstall()
    assert snapshot() == before


def test_self_time_subtracts_children():
    t = tracer_mod.Tracer()
    t.spans = [
        ["severi.analyze", 0.0, 10.0, -1, 0],
        ["severi.build_profile", 1.0, 4.0, 0, 0],
        ["intmat.invariant_factors", 2.0, 3.0, 1, 0],
        ["severi.build_profile", 5.0, 7.0, 0, 0],
    ]
    m = t.metrics()
    assert m["severi.analyze.calls"] == 1
    assert m["severi.analyze.self_s"] == pytest.approx(5.0)
    assert m["severi.build_profile.calls"] == 2
    assert m["severi.build_profile.self_s"] == pytest.approx(4.0)
    assert m["intmat.invariant_factors.self_s"] == pytest.approx(1.0)


def test_workload_table_matches_the_command_line_choices():
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]


def test_tail_percentile_leaves_ten_samples_beyond_in_one_round():
    assert run.tail_latency([float(i) for i in range(10_000)], 99.9) == (9989.0, 10)
    for wl in workloads.WORKLOADS.values():
        _, beyond = run.tail_latency([0.0] * (wl.round_size * wl.ops_per_call), wl.tail_pct)
        assert beyond >= 10, wl.name


def test_host_scale_uses_the_samples_around_an_interval():
    host = hostspeed.HostSpeed(warmup=0)
    host.stamps = [float(t) for t in range(10)]
    host.samples = [2e-3] * 5 + [4e-3] * 5
    # samples 6 and 7 lie inside, 4 and 5 before it and 8 and 9 after it
    assert host.scale(5.5, 7.5) == pytest.approx(hostspeed.NOMINAL_S / 4e-3)
    assert host.scale(0.0, 1.0) == pytest.approx(hostspeed.NOMINAL_S / 2e-3)


def test_every_seed_gives_normal_forms_the_same_shapes():
    import random
    from collections import Counter

    wl = workloads.NormalForms()
    shapes = [
        Counter((x.rows, x.cols) for x, _, _ in wl.generate(random.Random(seed)))
        for seed in (1, 2)
    ]
    assert shapes[0] == shapes[1]
    assert set(shapes[0].values()) == {wl.round_size // len(wl.shapes)}


def test_analyze_check_rejects_a_wrong_interior_count():
    from severi_lattice import severi
    from severi_lattice.polygons import LatticePolygon

    verts = ((0, 0), (4, 0), (0, 4))
    doc = severi.analyze(LatticePolygon(verts)).to_json_dict()
    assert workloads.check_analyze_report(verts, json.dumps(doc)) == []
    doc["components"][0]["interior_count"] += 1
    assert workloads.check_analyze_report(verts, json.dumps(doc))


def test_normal_form_check_rejects_a_wrong_certificate():
    import random

    wl = workloads.NormalForms()
    item = wl.generate(random.Random(0))[0]
    out = wl.call(item)
    assert wl.check(item, out) == []
    res = out[0]
    d = res.D
    wrong_d = type(d)(d.rows, d.cols, (d.entries[0] + 1,) + d.entries[1:])
    bad = type(res)(Q=res.Q, D=wrong_d, P=res.P)
    assert wl.check(item, (bad,) + out[1:])


def test_verify_check_rejects_a_short_count():
    wl = workloads.VerifyBattery()
    table = "\n".join(
        ["check  pass     fail", f"pick identity over Z^2  {wl.corpus_classes - 1:<8d} 0       ",
         "ALL CHECKS PASSED"]
    )
    assert wl.check([], (0, table, []))
