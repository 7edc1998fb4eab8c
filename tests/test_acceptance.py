"""Acceptance gate: every criterion runs at its stated trial budget and
tolerance, printing one PASS/FAIL line.

These are the binding checks; run with `pytest -v -s tests/test_acceptance.py`
to watch the lines as they complete, or `secgraph selftest` for the same
battery outside pytest.  Measured on a 2-vCPU VM at 2 threads, the full set
takes about 23 s: `neutralization` 14-16 s (21 s on one thread),
`fading_invariance` 3-4 s, `thread_determinism` 2 s, `isolation_ordering`
1 s, and every other criterion under 1 s.  The shared host can move any of
these by 20% or more.
"""

import contextlib
import io
import json
import math
import os
import re
import threading

import pytest

from secgraph import acceptance, cli, montecarlo

THREADS = min(os.cpu_count() or 1, 4)

# Every criterion's detail line at its seed, so that a stream that changes
# fails here instead of passing unnoticed.  Numbers are compared to within
# one unit of their last printed digit, since numpy's SIMD transcendentals
# may differ in the last ulp from one CPU to another; a * stands for a
# rounding error, which no stream sets.  A change that moves a stream
# re-pins these lines and says why.
PINNED = {
    "out_degree_law": "TV=0.0036 (<0.01), mean=2.4907 vs 2.5 (0.99 SE), within 10s",
    "in_degree_moment": "E{N^2}=2.2786 vs 2.280, rel=0.06% (<5%)",
    "isolation_ordering": (
        "q=0.25: gap=0.1293 (86.1 SE); q=0.5: gap=0.1263 (86.8 SE); q=1.0: gap=0.0834 (61.6 SE); "
        "q=2.0: gap=0.0387 (36.1 SE); q=4.0: gap=0.0136 (18.8 SE)"
    ),
    "sectorization": (
        "L=1: TV=0.0040, mean dev 0.74 SE; L=2: TV=0.0048, mean dev 0.87 SE; L=4: TV=0.0078, mean dev 0.94 SE; "
        "L=8: TV=0.0087, mean dev 1.00 SE (TV<0.015, dev<=3)"
    ),
    "thresholded_mean": (
        "worst |sim-exact|/exact=0.46% (<3%) over 14 (rho, power) points; Jensen bound respected: True; "
        "rho=0 closed form to 1e-6: True"
    ),
    "colluding_outage_ordering": (
        "pointwise dominance on (0, 3.4594): True; legitimate capacity=3.4594 = log2(11) ~ 3.459"
    ),
    "colluding_degree": (
        "b=1.5: 0.4123 vs 0.4135 (0.29%); b=2.0: 0.6404 vs 0.6366 (0.60%); b=3.0: 0.8234 vs 0.8270 (0.43%); "
        "b=4.0: 0.8952 vs 0.9003 (0.57%); b=6.0: 0.9489 vs 0.9549 (0.63%) (<3%); b=2 target 2/pi"
    ),
    "colluding_power_law": "KS=0.00281 (<0.01), window=27.5",
    "neighbor_msr": (
        "i=1: p_exist dev 0.66 SE; i=2: p_exist dev 0.62 SE; i=4: p_exist dev 0.24 SE; "
        "i=6: p_exist dev 0.33 SE; i=1 CDF KS=0.0039 (<0.02)"
    ),
    "fading_invariance": (
        "none: TV=0.0049; nakagami1: TV=0.0029; nakagami3: TV=0.0038; lognormal1: TV=0.0042; "
        "pairwise max TV=0.0087 (<0.015) (each <0.01)"
    ),
    "stable_numerics": (
        "|kanter-closed|=* (<1e-6); alpha=0.5: KS=0.00100; alpha=0.333: KS=0.00064 (<0.002); Mellin err=* (<1e-9)"
    ),
    "voronoi_moments": (
        "moments=1.0014/1.2877/2.0189/3.7292 rel=0.14%/0.60%/1.30%/2.17% (tol 1/5/5/8%), within 300s"
    ),
    "thread_determinism": (
        "byte-identical across thread counts: degree, isolation, threshold, sectors, neutralize, msr, collude, "
        "collude, voronoi, neutralize"
    ),
    "neutralization": (
        "le=0.1 rho=0: dev 1.47 SE; le=0.1 rho=0.5: margin +4.4 SE; le=0.1 rho=1.0: margin +5.6 SE; "
        "le=0.1 rho=1.5: margin +3.2 SE; le=0.2 rho=0: dev 0.19 SE; le=0.2 rho=0.5: margin +9.0 SE; "
        "le=0.2 rho=1.0: margin +13.5 SE; le=0.2 rho=1.5: margin +3.3 SE; le=0.5 rho=0: dev 0.08 SE; "
        "le=0.5 rho=0.5: margin +14.2 SE; le=0.5 rho=1.0: margin +26.2 SE; le=0.5 rho=1.5: margin +10.4 SE"
    ),
}

_NUMBER = re.compile(r"[-+]?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
_PINNED = re.compile(rf"\*|{_NUMBER.pattern}")


def _assert_matches_pin(detail, pinned):
    """detail reads as pinned, each number within one unit of the pinned
    number's last printed digit, any number where pinned has a *."""
    assert _NUMBER.sub("#", detail) == _PINNED.sub("#", pinned), f"{detail!r} does not read as {pinned!r}"
    for got, want in zip(_NUMBER.findall(detail), _PINNED.findall(pinned)):
        if want != "*":
            mantissa, _, exponent = want.partition("e")
            unit = 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))
            assert abs(float(got) - float(want)) <= 1.5 * unit, f"{got} against the pinned {want} in {detail!r}"


@pytest.mark.parametrize("name", list(acceptance.CRITERIA))
def test_criterion(name, capsys):
    (result,) = acceptance.run_all(THREADS, [name])
    line = f"{'PASS' if result.passed else 'FAIL'}  {name:<26s} [{result.seconds:7.2f}s]  {result.detail}"
    with capsys.disabled():
        print(line)
    assert result.passed, result.detail
    _assert_matches_pin(result.detail, PINNED[name])


def test_thread_determinism_runs_blocks_on_several_threads(monkeypatch):
    # the criterion's 4-thread runs share their blocks between the calling
    # thread and pool threads, so its byte comparison covers pooled blocks
    threads, run_blocks = {1: set(), 4: set()}, montecarlo._run_blocks

    def recorded(trials, root, t, block_fn, *args, **kwargs):
        def block(rng, n):
            threads[t].add(threading.get_ident())
            return block_fn(rng, n)

        return run_blocks(trials, root, t, block, *args, **kwargs)

    monkeypatch.setattr(montecarlo, "_run_blocks", recorded)
    passed, detail = acceptance.thread_determinism(1)
    assert passed, detail
    assert threads[1] == {threading.get_ident()} and len(threads[4]) > 1


# A fingerprint of each of thread_determinism's runs at seed 7 on one thread:
# the summary's simulated value and SE, and the sum of each numeric column.
# That criterion checks byte-identity across thread counts, this one that
# the streams themselves did not move.  Compared to 1e-9 relative, since
# numpy's SIMD transcendentals may differ in the last ulp from one CPU to
# another.  A change that moves a stream re-pins these and says why.
PINNED_RUNS = {
    "degree --lambda-l 1 --lambda-e 0.4 --trials 10000": {
        "summary simulated": 2.5152, "summary se": 0.029879192971318046, "sum n": 325.0,
        "sum pmf_analytic_out": 0.9998412655935578, "sum pmf_sim_out": 1.0, "sum pmf_sim_in": 1.0,
        "sum se": 0.03220694444370335,
    },
    "isolation --trials 10000": {
        "summary simulated": 0.0918, "summary se": 0.0028875785376299462, "sum ratio_e_over_l": 7.75,
        "sum p_out_analytic": 2.5, "sum p_out_sim": 2.4987589725418293, "sum p_out_se": 0.01367248228610578,
        "sum p_in_sim": 2.088807185992322, "sum p_in_se": 0.008544847821495762,
    },
    "threshold --lambda-e 0.1 --power 5 --rho 1 --trials 10000": {
        "summary simulated": 3.7666, "summary se": 0.028121726958931864, "sum rho": 12.0,
        "sum mean_analytic": 27.06229653716356, "sum mean_bound": 32.298179868958414, "sum mean_sim": 27.0784,
        "sum se": 0.24222021325785617,
    },
    "sectors --sectors 4 --lambda-e 0.4 --trials 10000": {
        "summary simulated": 9.9522, "summary se": 0.058172587367179215, "sum n": 1128.0,
        "sum pmf_analytic": 0.9999450340953155, "sum pmf_sim": 1.0, "sum se": 0.05061818731264688,
    },
    "neutralize --lambda-e 0.5 --guard-radius 0.5 --trials 2000": {
        "summary simulated": 5.634, "summary se": 0.12700427962679747, "sum rho_n": 2.5,
        "sum bound": 72.7005781201515, "sum mean_sim": 87.516, "sum se": 1.9508939224775725,
    },
    "msr --lambda-e 0.1 --power 10 --trials 10000": {
        "summary simulated": 0.9084, "summary se": 0.002884604652287727, "sum rho": 404.0,
        "sum cdf_analytic": 37.02285807225251, "sum cdf_sim": 37.1687, "sum se": 0.43786920861212936,
    },
    "collude --lambda-e 0.1 --power 10 --trials 10000": {
        "summary simulated": 0.64591, "summary se": 0.005522624116098503, "sum rho": 172.97158093186485,
        "sum cdf_colluding_analytic": 62.67154071450255, "sum cdf_colluding_sim": 62.4223,
        "sum cdf_noncolluding_analytic": 52.95194456669906, "sum se": 0.399717919615394,
    },
    "collude --sweep-b 1.5:3:0.5 --lambda-e 0.1 --trials 5000": {
        "summary simulated": 0.64704, "summary se": 0.007878798307645303, "sum b": 9.0,
        "sum sinc_analytic": 2.6339365157072705, "sum degree_sim_normalized": 2.65604, "sum se": 0.033490686688145276,
    },
    "voronoi --trials 5000": {
        "summary simulated": 1.0046333377160346, "summary se": 0.007509022574774493, "sum k": 10.0,
        "sum moment_table": 7.923, "sum moment_sim": 7.954138751309364, "sum se": 0.23650809600042164,
    },
    "neutralize --lambda-e 0.5 --guard-radius 1.5 --trials 48": {
        "summary simulated": 3711.3541666666665, "summary se": 540.5378850934148, "sum rho_n": 4.0,
        "sum bound": 2428.7354923890075, "sum mean_sim": 3793.2291666666665, "sum se": 554.5487560521835,
    },
}


def _fingerprint(args, tmp_path):
    out = tmp_path / "run.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args + ["--seed", "7", "--threads", "1", "--format", "json", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    sums = {f"sum {c}": math.fsum(row[c] for row in doc["rows"] if row[c] is not None) for c in doc["rows"][0]}
    return {"summary simulated": doc["summary"]["simulated"], "summary se": doc["summary"]["se"], **sums}


def test_thread_determinism_runs_keep_their_streams(tmp_path):
    assert list(PINNED_RUNS) == [" ".join(args) for args in acceptance.DETERMINISM_RUNS]
    for args in acceptance.DETERMINISM_RUNS:
        assert _fingerprint(args, tmp_path) == pytest.approx(PINNED_RUNS[" ".join(args)], rel=1e-9), args
