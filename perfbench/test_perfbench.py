"""Tests of the benchmark's own machinery.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import scw_cvqkd  # noqa: E402
import scw_cvqkd.cli  # noqa: E402,F401
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

# two asymptotic points, one of them past the cutoff, and one finite point
SMALL_ASYM = {"loss_grid": [3.0, 9.8], "noise_levels": [0.1], "n_values": None}
SMALL_FINITE = {"loss_grid": [1.0], "noise_levels": [0.1], "n_values": [10**8]}


def _namespaces() -> dict:
    return {
        (name, attr): id(value)
        for name, module in sys.modules.items()
        if name == "scw_cvqkd" or name.startswith("scw_cvqkd.")
        for attr, value in vars(module).items()
    }


def _small_pass() -> list[dict]:
    rows = []
    for spec in (SMALL_ASYM, SMALL_FINITE):
        rows += [worker._row(r) for r in scw_cvqkd.sweep(
            worker._sweep_spec(scw_cvqkd, spec), scw_cvqkd.SystemParams())]
    return rows


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.setenv("SCW_THREADS", "1")
    worker._clear_caches()
    yield
    worker._clear_caches()


def test_tracer_restores_every_attribute():
    before = _namespaces()
    with Tracer():
        during = _namespaces()
    assert _namespaces() == before
    replaced = {key for key in before if during[key] != before[key]}
    # every target is patched where its callers look it up
    assert ("scw_cvqkd.search", "calibrate_delta") in replaced
    assert ("scw_cvqkd.security", "erasure_error_profiles") in replaced
    assert ("scw_cvqkd.cli", "load_config") in replaced


def test_tracer_restores_after_an_exception():
    before = _namespaces()
    with pytest.raises(scw_cvqkd.DomainError):
        with Tracer():
            scw_cvqkd.search.calibrate_delta(2.0, scw_cvqkd.SystemParams())
    assert _namespaces() == before


def test_traced_pass_is_bit_identical(serial):
    plain = _small_pass()
    worker._clear_caches()
    with Tracer() as tracer:
        traced = _small_pass()
    assert traced == plain
    assert [r["status"] for r in plain] == ["ok", "infeasible", "ok"]
    assert tracer.span_count() > 0


def _traced_counts(tmp_path, tag) -> dict:
    ini = tmp_path / "sim.ini"
    ini.write_text(workloads.SIM_INI, encoding="utf-8")
    out = str(tmp_path / f"{tag}.json")
    request = {"command": "simulate", "seed": 0, "rounds": 10**5}
    spec = {"requests": [workloads.cli_argv(request, out, str(ini))], "outputs": [out]}
    worker._clear_caches()
    with Tracer() as tracer:
        _small_pass()
        assert worker._cli_pass(scw_cvqkd, spec)["codes"] == [0]
    metrics = tracer.per_layer()
    # counts and ratios of counts repeat; times do not
    return {k: v for k, (v, unit) in metrics.items() if unit in ("count", "ratio")}


def test_per_layer_counts_repeat_exactly(serial, tmp_path):
    first = _traced_counts(tmp_path, "a")
    second = _traced_counts(tmp_path, "b")
    assert first == second
    for layer in ("angular.carrier_weight", "optics.calibrate_delta",
                  "security.asymptotic_key_rate", "finitekey.finite_key_rate",
                  "search.optimize_point", "simulate.simulate_rounds"):
        assert first[f"{layer}.calls"] > 0, layer
    assert first["search.infeasible_points"] == 1
    assert 0.0 < first["search.infeasible_eval_ratio"] < 1.0


@pytest.mark.parametrize("workload", ["asym-sweep", "finite-sweep"])
def test_sweep_inputs_are_seeded_increasing_and_accepted(workload):
    grids = set()
    for seed in range(25):
        spec = workloads.sweep_inputs(workload, seed)
        assert spec == workloads.sweep_inputs(workload, seed)
        grid = spec["loss_grid"]
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert 0.0 < grid[0] and grid[-1] <= 10.0
        worker._sweep_spec(scw_cvqkd, spec)  # raises unless SweepSpec accepts it
        grids.add(tuple(grid))
    assert len(grids) == 25


def test_rate_quality_reads_as_a_rate_ratio():
    quality = run.rate_quality([1.0, 100.0, 0.0])
    # a point past the cutoff counts at the 1e-12 b/s floor
    assert quality["rate_gmean"] == pytest.approx((1.0 * 100.0 * 1e-12) ** (1 / 3))
    assert quality["decades"] == pytest.approx(12.0 + 14.0 + 0.0)
    # every rate 10% lower moves the geometric mean by 10%
    ratio = run.rate_quality([0.9, 90.0])["rate_gmean"] / run.rate_quality([1.0, 100.0])["rate_gmean"]
    assert ratio == pytest.approx(0.9)


def test_cli_requests_are_seeded_and_alternate():
    requests = workloads.cli_requests(3)
    assert requests == workloads.cli_requests(3)
    assert requests != workloads.cli_requests(4)
    assert [r["command"] for r in requests[:4]] == ["keyrate", "simulate"] * 2
    points = workloads.keyrate_points(3)
    assert len(set(points)) == len(points)
    assert all(0.5 <= loss <= 8.0 and 0.0 <= xi <= 0.2 for loss, xi in points)


def test_simulate_seed_pool_passes(tmp_path):
    ini = tmp_path / "sim.ini"
    ini.write_text(workloads.SIM_INI, encoding="utf-8")
    cfg = scw_cvqkd.load_config(str(ini))
    tun = cfg.tunables.resolve(cfg.system)
    ch = scw_cvqkd.ChannelModel(loss_db=cfg.loss_db, xi=cfg.xi)
    for seed in workloads.SIM_SEEDS:
        stats = scw_cvqkd.simulate_rounds(tun, cfg.system, ch,
                                          rounds=workloads.SIM_ROUNDS, seed=seed)
        report = scw_cvqkd.compare_analytic(stats, tun, cfg.system, ch)
        assert report["pass"], (seed, report["z"])
