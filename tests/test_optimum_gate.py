"""tools/optimum_gate.py: its point sets and how compare matches records."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "optimum_gate.py"
spec = importlib.util.spec_from_file_location("optimum_gate", TOOL)
optimum_gate = importlib.util.module_from_spec(spec)
spec.loader.exec_module(optimum_gate)


def test_block_points_are_a_separate_finite_set():
    block = list(optimum_gate.points("block"))
    assert len(block) == 90 and len(set(block)) == 90
    assert all(n is not None for *_, n in block)
    assert len(list(optimum_gate.points())) == 540


def _record(rate, **extra):
    return {"S": 1, "loss_db": 3.0, "xi": 0.1, "n": 10**8, "status": "ok",
            "rate": rate, "evaluations": 105, "calls": 5,
            "params": [0.2, 1.45, 0.54, 1.9], **extra}


def _compare(tmp_path, a, b):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, records in zip(paths, (a, b)):
        path.write_text(json.dumps(records))
    return optimum_gate.compare(*map(str, paths))


def test_compare_matches_records_by_ec_mode(tmp_path, capsys):
    # a record without ec_mode is a pointwise one, kept apart from the
    # block record at the same point; a moved block rate gets no oracle,
    # which integrates the pointwise charge
    pointwise, block = _record(1.0), _record(0.9, ec_mode="block")
    moved = dict(block, rate=0.9 * (1.0 + 1e-6))
    assert _compare(tmp_path, [pointwise, block], [pointwise, moved]) == 1
    out = capsys.readouterr().out
    assert "2 points, 0 status changes" in out
    assert "(largest at S=1 3.0 dB xi=0.1 n=1e+08 block)" in out
    assert "oracle" not in out
    assert _compare(tmp_path, [block], [pointwise]) == 1
    assert "point sets differ: 2 points in one record only" in capsys.readouterr().out


def test_compare_prints_each_group_range(tmp_path, capsys):
    # the rate-change range of each (S, ec_mode) group, so an unchanged
    # group shows as such beside a moved one; the exit rule is unchanged
    s1, s3 = _record(1.0), _record(2.0, S=3)
    moved = dict(s1, rate=1.0 + 4e-13)
    assert _compare(tmp_path, [s1, s3], [moved, s3]) == 0
    out = capsys.readouterr().out
    assert "  S=1 pointwise, 1 ok points: +4.00e-13 ... +4.00e-13\n" in out
    assert "  S=3 pointwise, 1 ok points: +0.00e+00 ... +0.00e+00 (every record identical)" in out


def test_compare_runs_the_oracle_on_a_moved_finite_rate(tmp_path, capsys):
    # a finite pointwise rate that moved by more than RTOL is recomputed by
    # the 30-digit oracle at both records' parameters, which charges
    # finitekey._fixed_charge: the record of a real optimum lies on its own
    # 48-node rule to rounding, so it is the closer one
    from scw_cvqkd.finitekey import FiniteKeyParams
    from scw_cvqkd.noise import ChannelModel
    from scw_cvqkd.optics import SystemParams
    from scw_cvqkd.search import optimize_point

    opt = optimize_point(
        ChannelModel(loss_db=3.0, xi=0.1), SystemParams(), FiniteKeyParams(n=10**8)
    )
    t = opt.params
    a = _record(opt.rate, params=[t.mu_0, t.beta_A, t.delta, t.v_0])
    b = dict(a, rate=opt.rate * (1.0 + 1e-9))
    assert _compare(tmp_path, [a], [b]) == 1
    out = capsys.readouterr().out
    assert "oracle at S=1 3.0 dB xi=0.1 n=1e+08, relative error" in out
    rule = re.search(r"against the 48-node rule: A (\S+), B (\S+); A is closer", out)
    assert rule is not None, out
    assert abs(float(rule[1])) < 1e-13
    assert float(rule[2]) == pytest.approx(1e-9, rel=1e-3)
    assert "against the integral:" in out
