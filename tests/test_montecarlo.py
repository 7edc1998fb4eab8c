"""Estimator harness: determinism, window sizing, and agreement with the
closed forms at trial counts small enough for a test run.

Statistical assertions here use wide gates (5-6 standard errors or a few
percent) so the suite stays quiet; the tight cross-validation lives in
the acceptance criteria.
"""

import dataclasses
import math
import re
import sys
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import chisquare, ks_2samp, kstest, poisson, uniform

from secgraph import (
    Estimate,
    NetworkConfig,
    NeutralizationConfig,
    PointSet,
    Rng,
    Sample,
    SectorConfig,
    analytic,
    build_baseline,
    build_fading,
    build_neutralized,
    build_sectorized,
    build_thresholded,
    colluding_msr,
    colluding_window,
    effective_eaves,
    estimate_generic,
    fading_window,
    in_degree_window,
    kernels,
    montecarlo,
    msr_link,
    sample_disk,
    secure_range_thresholded,
)
from secgraph.propagation import FadingModel, GainModel, gain

CFG = NetworkConfig(lambda_l=1.0, lambda_e=0.5)


def _sample(kind, trials=4096, seed=1234, threads=1, cfg=CFG, **params):
    return estimate_generic(kind, cfg, trials, Rng(seed), threads, **params)


# ------------------------------------------------------- results and inputs

def test_estimate_validation():
    with pytest.raises(ValueError):
        Estimate(1.0, -0.1, 10)
    with pytest.raises(ValueError):
        Estimate(1.0, 0.1, 0)
    assert Estimate(1.0, 0.0, 1).bias_note is None


def test_estimate_generic_validation():
    with pytest.raises(ValueError):
        _sample("degree_pmf")  # not a kind
    with pytest.raises(ValueError):
        _sample("out_degree", trials=0)
    with pytest.raises(ValueError):
        _sample("neighbor_msr", neighbor_index=0)
    for L in (0, 2.5):
        with pytest.raises(ValueError, match="L must be an integer >= 1"):
            _sample("sector_degree", trials=10, L=L)
    assert len(_sample("neighbor_msr", trials=300).values) == 300


@pytest.mark.parametrize(
    "kind,rho",
    [("out_degree", 0.0), ("sector_degree", 0.0), ("out_degree", 1.0), ("neighbor_msr", 0.0)],
    ids=["out_degree", "sector_degree", "out_degree_thresholded", "neighbor_msr"],
)
def test_distance_domain_kinds_refuse_no_eavesdroppers(kind, rho):
    # the nearest eavesdropper's distance has no law at lambda_e = 0: a named
    # refusal, not a division by zero inside a block
    with pytest.raises(ValueError, match="needs lambda_e > 0"):
        _sample(kind, cfg=NetworkConfig(lambda_e=0.0, rho=rho))


@pytest.mark.parametrize("kind", ["neighbor_msr", "colluding_power", "colluding_degree"])
def test_unbounded_gain_kinds_refuse_the_bounded_gain(kind):
    # their laws and secure radii are stated for r^(-2b) alone: a named
    # refusal, not rates built from the wrong gain
    with pytest.raises(ValueError, match="unbounded gain"):
        _sample(kind, cfg=NetworkConfig(lambda_e=0.1, gain=GainModel("bounded", 2.0)), trials=1000)


_FADED = NetworkConfig(lambda_e=0.1, fading=FadingModel("nakagami", m=2.0))
_RHO = NetworkConfig(lambda_e=0.1, rho=3.0)
_NOISE = NetworkConfig(lambda_e=0.1, sigma2_e=4.0)
_REFUSED = [
    ("in_degree", {}, _FADED, "fading"),
    ("in_degree", {}, _RHO, "rho"),
    ("in_degree", {}, _NOISE, "sigma2_e"),
    ("sector_degree", {"L": 2}, _FADED, "fading"),
    ("neutralized_degree", {"rho_n": 0.0}, _FADED, "fading"),
    ("neutralized_degree", {"rho_n": 0.5}, _FADED, "fading"),
    ("neutralized_degree", {"rho_n": 0.5}, _RHO, "rho"),
    ("neutralized_degree", {"rho_n": 0.5}, _NOISE, "sigma2_e"),
    ("neighbor_msr", {}, _FADED, "fading"),
    ("colluding_power", {}, _FADED, "fading"),
    ("colluding_degree", {}, _FADED, "fading"),
    ("colluding_degree", {}, _RHO, "rho"),
    ("out_degree", {}, dataclasses.replace(_RHO, fading=_FADED.fading), "rho"),
    ("out_degree", {}, dataclasses.replace(_NOISE, fading=_FADED.fading), "sigma2_e"),
]


@pytest.mark.parametrize(
    "kind,params,cfg,field",
    _REFUSED,
    ids=["-".join([kind, *map(str, params.values()), field]) for kind, params, _, field in _REFUSED],
)
def test_kinds_refuse_the_fields_they_do_not_model(kind, params, cfg, field, monkeypatch):
    # a field the kind's law does not model would otherwise be ignored and
    # the result read as if it held: a named refusal before any block
    def sampled(*args, **kwargs):
        pytest.fail("a refused config reached the block harness")

    monkeypatch.setattr(montecarlo, "_run_blocks", sampled)
    with pytest.raises(ValueError, match=f"does not model {field}, got"):
        _sample(kind, cfg=cfg, **params)


def test_sample_reductions():
    # ties count as <=: the two zeros (no secrecy) are in the CDF at 0
    values, ses = Sample(np.array([0.0, 0.0, 0.5, 1.0, 1.0, 2.0])).ecdf((0, 0.5, 1, 1.5))
    assert np.array_equal(values, np.array([2, 3, 5, 5]) / 6)
    assert np.array_equal(ses, np.sqrt(values * (1 - values) / 6))
    # mean: s = 2, s2 = 2 and s = 8, s2 = 26 over n = 4
    est = Sample(np.array([True, False, True, False])).mean()
    assert (est.value, est.std_error, est.trials) == (0.5, math.sqrt((2 - 2 * 2 / 4) / 3 / 4), 4)
    est = Sample(np.array([0, 1, 3, 4]), "note").mean()
    assert (est.value, est.std_error, est.bias_note) == (2.0, math.sqrt((26 - 8 * 8 / 4) / 3 / 4), "note")
    assert Sample(np.array([7])).mean().std_error == 0.0
    assert np.array_equal(Sample(np.array([0, 2, 2])).pmf().probs, np.array([1, 0, 2]) / 3)


# ------------------------------------------------------------ window sizing

def test_in_degree_window_hits_bias_target():
    w = in_degree_window(1.0, 0.5, bias=1e-4)
    assert (1.0 / 0.5) * math.exp(-0.5 * math.pi * w * w) == pytest.approx(1e-4, rel=1e-12)
    with pytest.raises(ValueError):
        in_degree_window(1.0, 0.0)


def test_colluding_window_controls_tail_std():
    cfg = NetworkConfig(lambda_e=0.1, gain=GainModel("unbounded", 2.0))
    rel = 1e-3
    w = colluding_window(cfg, rel_std=rel)
    b = 2.0
    scale = (math.pi * cfg.lambda_e / analytic.c_alpha(0.5)) ** b * cfg.p_l
    std_tail = math.sqrt(2.0 * math.pi * cfg.lambda_e / (4 * b - 2)) * cfg.p_l * w ** (1 - 2 * b)
    assert std_tail <= rel * scale * (1 + 1e-12)
    with pytest.raises(ValueError):
        colluding_window(NetworkConfig(gain=GainModel("unbounded", 1.0)))


def test_fading_window_ordering():
    lam = 0.25
    w_none = fading_window(FadingModel("none"), lam)
    w_nak = fading_window(FadingModel("nakagami", m=2.0), lam)
    w_ln = fading_window(FadingModel("lognormal", sigma_s=1.0), lam)
    assert w_none < w_nak < w_ln  # heavier gain tails need wider windows
    assert w_none == pytest.approx(4.0 / math.sqrt(lam))


# -------------------------------------------------------------- determinism

# Two full blocks and a partial one of the one-draw-per-trial kinds (4096
# trials per block), and of colluding windows at b = 2 (51 expected
# eavesdroppers per trial, 2048 trials per block): a run of one block would
# prove nothing about the pool.
_CHEAP = 2 * montecarlo._MAX_BLOCK + 100
_COLLUDING_B2 = 2 * 2048 + 100

_INVARIANCE = [
    ("out_degree", {"trials": _CHEAP}),
    ("out_degree", {"cfg": NetworkConfig(lambda_e=0.5, fading=FadingModel("nakagami", m=2.0)), "trials": 600}),
    ("in_degree", {"trials": 600}),
    ("voronoi_area", {"cfg": None, "trials": 2 * montecarlo._VORONOI_BLOCK + 100}),
    ("out_degree", {"cfg": NetworkConfig(lambda_e=0.5, rho=1.0), "trials": _CHEAP}),
    ("sector_degree", {"L": 3, "trials": _CHEAP}),
    ("neutralized_degree", {"rho_n": 0.4, "trials": 512}),
    ("neighbor_msr", {"neighbor_index": 2, "trials": _CHEAP}),
    ("colluding_power", {"trials": _COLLUDING_B2}),
    ("colluding_power", {"cfg": NetworkConfig(lambda_e=0.1, gain=GainModel("unbounded", 1.5)), "trials": 2048}),
    ("colluding_degree", {"cfg": NetworkConfig(lambda_e=0.5), "trials": _COLLUDING_B2}),
]


def _record_blocks(monkeypatch, record):
    """Have every block call record(n), n its trial count, in the thread that runs it."""
    run_blocks = montecarlo._run_blocks

    def recorded(trials, root, threads, block_fn, draws=None, points=None, size=None):
        def block(rng, n):
            record(n)
            return block_fn(rng, n)

        return run_blocks(trials, root, threads, block, draws, points, size)

    monkeypatch.setattr(montecarlo, "_run_blocks", recorded)


def _meet_in_first_two_blocks(record):
    """record(n), after which the first two blocks to start wait for each
    other: a run passes only if two threads ran blocks at once."""
    barrier, lock, started = threading.Barrier(2, timeout=60), threading.Lock(), []

    def meet(n):
        record(n)
        with lock:
            started.append(n)
            first_two = len(started) <= 2
        if first_two:
            barrier.wait()

    return meet


@pytest.mark.parametrize("kind,kw", _INVARIANCE)
def test_thread_count_invariance(kind, kw, monkeypatch):
    a = _sample(kind, threads=1, **kw)
    # every run here is several blocks, so at threads=4 the calling thread
    # and pool threads share them: the first two blocks run at once
    blocks = []
    _record_blocks(monkeypatch, _meet_in_first_two_blocks(blocks.append))
    b = _sample(kind, threads=4, **kw)
    size = max(blocks)  # the kind's own block size
    assert len(blocks) == len(montecarlo._blocks(len(a.values), size)) > 1
    assert np.array_equal(a.values, b.values)
    assert a.bias_note == b.bias_note  # window-growth counts included


def _no_pool():
    pytest.fail("a serial run touched the pool")


class _IdleHelpers:
    """Stands in for _helpers(): counts the helpers each run asks for and
    never starts one, so the calling thread runs every block."""

    def __init__(self):
        self.asked = []

    def submit(self, fn):
        self.asked.append(fn)
        return Future()


@pytest.mark.parametrize(
    "threads,blocks,helpers", [(3, 4, 2), (3, 6, 2), (1, 4, 0), (3, 1, 0), (3, 2, 1), (8, 3, 2)]
)
def test_pool_rule(threads, blocks, helpers, monkeypatch):
    # a run of two or more blocks at threads > 1 asks for min(threads,
    # blocks) - 1 helpers whatever its blocks take; helpers that never start
    # are cancelled, and the calling thread runs the blocks left
    def draw(rng, n):
        return rng.generator().random(n)

    serial = montecarlo._run_blocks(blocks, Rng(1), 1, draw, size=1)
    idle = _IdleHelpers()
    monkeypatch.setattr(montecarlo, "_helpers", lambda: idle)
    out = montecarlo._run_blocks(blocks, Rng(1), threads, draw, size=1)
    assert len(idle.asked) == helpers
    assert np.array_equal(np.concatenate(serial), np.concatenate(out))


@pytest.mark.parametrize("took", [0.003, 0.0])
def test_pool_ignores_block_0_time(took, monkeypatch):
    # a run asks for its helpers before block 0 starts, so 3 threads over 4
    # blocks ask for 2 whether block 0 takes 3 ms or no time at all
    def draw(rng, n):
        if not asked_at_block_0:
            asked_at_block_0.append(len(idle.asked))
            time.sleep(took)
        return rng.generator().random(n)

    asked_at_block_0 = [0]
    serial = montecarlo._run_blocks(4, Rng(1), 1, draw, size=1)
    asked_at_block_0.clear()
    idle = _IdleHelpers()
    monkeypatch.setattr(montecarlo, "_helpers", lambda: idle)
    out = montecarlo._run_blocks(4, Rng(1), 3, draw, size=1)
    assert asked_at_block_0 == [2]
    assert len(idle.asked) == 2
    assert np.array_equal(np.concatenate(serial), np.concatenate(out))


# runs of three or more blocks of every kind but sector_degree and
# neighbor_msr, which the thread-count cases pool
_POOLED = [
    ("out_degree", {"cfg": NetworkConfig(lambda_e=0.5, fading=FadingModel("lognormal", sigma_s=1.0))}),
    ("colluding_degree", {"cfg": NetworkConfig(lambda_e=0.1, gain=GainModel("unbounded", 1.5))}),
    ("neutralized_degree", {"rho_n": 1.5}),
    ("in_degree", {"cfg": NetworkConfig(lambda_e=0.1)}),
    ("voronoi_area", {"cfg": None, "trials": 3 * montecarlo._VORONOI_BLOCK}),
    ("in_degree", {"cfg": NetworkConfig(lambda_e=1.0)}),
]


# runs of every kind, one-block runs among them
_SERIAL = (
    [
        ("out_degree", {"trials": _CHEAP}),
        ("in_degree", {"cfg": NetworkConfig(lambda_e=2.0), "trials": 600}),
        ("voronoi_area", {"cfg": None, "trials": 600}),
        ("out_degree", {"cfg": NetworkConfig(lambda_e=0.5, rho=1.0), "trials": _CHEAP}),
        ("sector_degree", {"L": 3, "trials": _CHEAP}),
        ("neutralized_degree", {"rho_n": 0.0, "trials": _CHEAP}),
        ("neighbor_msr", {"neighbor_index": 2, "trials": _CHEAP}),
        ("colluding_power", {"trials": _COLLUDING_B2}),
        ("colluding_power", {"cfg": NetworkConfig(lambda_e=0.1, gain=GainModel("unbounded", 1.75)), "trials": 2048}),
        (
            "colluding_degree",
            {"cfg": NetworkConfig(lambda_e=0.1, gain=GainModel("unbounded", 2.0)), "trials": _COLLUDING_B2},
        ),
    ]
    + [(kind, {**kw, "trials": 24}) for kind, kw in _POOLED[:2]]
    # a guard-disk run of one filtering call (14 trials at rho_n = 1.5)
    + [("neutralized_degree", {"rho_n": 1.5, "trials": 14})]
    + [
        ("colluding_degree", {"cfg": NetworkConfig(lambda_e=0.1, gain=GainModel("unbounded", 1.75)), "trials": 2048}),
        ("neutralized_degree", {"rho_n": 0.25, "trials": 2 * montecarlo._BLOCK}),
        ("neutralized_degree", {"rho_n": 0.5, "trials": 2 * montecarlo._BLOCK}),
    ]
)


@pytest.mark.parametrize("kind,kw", _SERIAL)
def test_serial_runs_start_no_pool(kind, kw, monkeypatch):
    # at threads=1 no run of any kind touches the pool, nor does a run of
    # one block at any thread count
    monkeypatch.setattr(montecarlo, "_helpers", _no_pool)
    blocks = []
    _record_blocks(monkeypatch, blocks.append)
    assert len(_sample(kind, threads=1, **kw).values) == kw.get("trials", 4096)
    if len(blocks) == 1:
        assert len(_sample(kind, threads=4, **kw).values) == kw["trials"]


def test_every_kind_has_thread_cases():
    # a new kind must join the invariance cases, which run blocks on several
    # threads at once, and the pool-rule cases
    kinds = set(montecarlo._SAMPLERS)
    assert kinds == {kind for kind, _ in _INVARIANCE}
    assert kinds == {kind for kind, _ in _SERIAL + _POOLED}


@pytest.mark.parametrize("kind,kw", _POOLED)
def test_pooled_runs_reach_the_pool(kind, kw, monkeypatch):
    # at threads=4 every kind asks for min(threads, blocks) - 1 helpers: 2
    # for three 256-trial or 1024-trial blocks, 3 for the 55 guard-disk
    # blocks of one filtering call (14 trials) each
    idle = _IdleHelpers()
    monkeypatch.setattr(montecarlo, "_helpers", lambda: idle)
    _sample(kind, threads=4, **{"trials": 3 * montecarlo._BLOCK, **kw})
    assert len(idle.asked) == (3 if kind == "neutralized_degree" else 2)


@pytest.mark.parametrize("lambda_e,sizes", [(0.1, [3] * 8), (0.5, [14, 14, 10])])
def test_short_guard_disk_runs_reach_the_pool(lambda_e, sizes, monkeypatch):
    # 24 and 38 trials at rho_n = 1.5: each block is one filtering call with
    # its own substream, so even a run this short is shared by two threads,
    # which give the one-thread values and growth counts
    cfg = NetworkConfig(lambda_e=lambda_e)
    a = _sample("neutralized_degree", trials=sum(sizes), cfg=cfg, rho_n=1.5)
    blocks = []
    _record_blocks(monkeypatch, _meet_in_first_two_blocks(blocks.append))
    b = _sample("neutralized_degree", trials=sum(sizes), threads=2, cfg=cfg, rho_n=1.5)
    assert sorted(blocks, reverse=True) == sizes
    assert np.array_equal(a.values, b.values)
    assert a.bias_note == b.bias_note


def _tally_blocks(pause, record=lambda: None):
    """A block function that calls record(), sleeps pause seconds, which
    releases the GIL as a numpy block does, and draws one number per trial;
    and its tally of the blocks in flight, their peak and the threads that
    ran them."""
    lock = threading.Lock()
    tally = {"in_flight": 0, "peak": 0, "threads": set()}

    def draw(rng, n):
        with lock:
            tally["in_flight"] += 1
            tally["peak"] = max(tally["peak"], tally["in_flight"])
            tally["threads"].add(threading.get_ident())
        try:
            record()
            time.sleep(pause)
            return rng.generator().random(n)
        finally:
            with lock:
                tally["in_flight"] -= 1

    return draw, tally


def test_pool_keeps_at_most_workers_blocks_in_flight():
    # 400 one-trial blocks on more threads than cores, with the interpreter
    # switching threads every microsecond: every block runs once, in its
    # slot, and no more than threads blocks are ever in flight
    draw, tally = _tally_blocks(2e-4)
    serial = montecarlo._run_blocks(400, Rng(1), 1, draw, size=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = montecarlo._run_blocks(400, Rng(1), 6, draw, size=1)
    finally:
        sys.setswitchinterval(interval)
    assert 1 < tally["peak"] <= 6 and len(tally["threads"]) > 1
    assert np.array_equal(np.concatenate(serial), np.concatenate(pooled))


@pytest.mark.parametrize("where", ["caller", "helper"])
def test_a_raising_block_stops_the_run_and_reaches_the_caller(where):
    # the first block to start on the calling thread, or on a pool thread,
    # raises: no block is claimed after it, so only the blocks the other two
    # threads had claimed start later, and the error reaches the caller once
    # every block in flight is done
    caller, lock, events = threading.get_ident(), threading.Lock(), []

    def maybe_raise():
        on_caller = threading.get_ident() == caller
        with lock:
            raising = on_caller == (where == "caller") and "raised" not in events
            events.append("raised" if raising else "started")
        if raising:
            raise RuntimeError("block failed")

    draw, tally = _tally_blocks(2e-3, maybe_raise)
    with pytest.raises(RuntimeError, match="block failed"):
        montecarlo._run_blocks(200, Rng(1), 3, draw, size=1)
    assert tally["in_flight"] == 0
    assert events[events.index("raised") + 1 :].count("started") <= 2


def _nested(rng, n):
    """A block that itself runs three blocks at threads=2."""
    return np.concatenate(montecarlo._run_blocks(3 * n, rng, 2, lambda r, m: r.generator().random(m), size=n))


def _all_finish(*calls):
    """Each call run on its own thread, all at once; each must return within 60 s."""
    out = [None] * len(calls)
    runs = [threading.Thread(target=lambda i=i, call=call: out.__setitem__(i, call())) for i, call in enumerate(calls)]
    for run in runs:
        run.start()
    for run in runs:
        run.join(timeout=60)
    assert not any(run.is_alive() for run in runs), "a pooled run did not finish"
    return out


@pytest.mark.parametrize("pool", ["shared", "one thread"])
def test_nested_and_concurrent_runs_finish_with_the_serial_values(pool, monkeypatch):
    # a block's own pooled run, and two callers at once, finish and give the
    # serial values; with one pool thread for everyone they find it busy,
    # so they cancel their queued helpers and run their blocks themselves
    nested = np.concatenate(montecarlo._run_blocks(8, Rng(3), 1, _nested, size=2))
    degrees = _sample("in_degree", trials=600).values
    guards = _sample("neutralized_degree", trials=24, rho_n=1.5).values
    one = ThreadPoolExecutor(max_workers=1)
    if pool == "one thread":
        monkeypatch.setattr(montecarlo, "_helpers", lambda: one)
    try:
        (got,) = _all_finish(lambda: montecarlo._run_blocks(8, Rng(3), 4, _nested, size=2))
        assert np.array_equal(nested, np.concatenate(got))
        a, b = _all_finish(
            lambda: _sample("in_degree", trials=600, threads=4).values,
            lambda: _sample("neutralized_degree", trials=24, threads=4, rho_n=1.5).values,
        )
        assert np.array_equal(degrees, a) and np.array_equal(guards, b)
    finally:
        one.shutdown(wait=False, cancel_futures=True)  # a stuck helper fails the test, not the run


def test_block_size_follows_draws(monkeypatch):
    sizes = []
    _record_blocks(monkeypatch, sizes.append)

    def block_trials(kind, trials, **kw):
        sizes.clear()
        _sample(kind, trials=trials, **kw)
        return sizes

    # one expected draw per trial: 4096-trial blocks, the last one partial
    cheap = [
        ("out_degree", {}),
        ("out_degree", {"cfg": NetworkConfig(lambda_e=0.5, rho=1.0)}),
        ("sector_degree", {"L": 3}),
        ("neutralized_degree", {"rho_n": 0.0}),
        ("neighbor_msr", {"neighbor_index": 2}),
    ]
    for kind, kw in cheap:
        assert block_trials(kind, _CHEAP, **kw) == [4096, 4096, 100], kind
    # the other spatial kinds keep 256-trial blocks, on which their point
    # budgets and pool thresholds are stated; typical cells come 1024 a block
    spatial = [
        ("in_degree", {}),
        ("out_degree", {"cfg": NetworkConfig(lambda_e=0.5, fading=FadingModel("nakagami", m=2.0))}),
        ("neutralized_degree", {"rho_n": 0.5}),
    ]
    for kind, kw in spatial:
        assert block_trials(kind, 600, **kw) == [256, 256, 88], kind
    assert block_trials("voronoi_area", 2148, cfg=None) == [1024, 1024, 100]
    # colluding windows at the default size expect 456, 250, 122, 51 and 9.5
    # eavesdroppers per trial; the b = 1.5 blocks keep 256 trials
    cfgs = [NetworkConfig(lambda_e=0.1, gain=GainModel("unbounded", b)) for b in (1.5, 1.6, 1.75, 2.0, 3.0)]
    eaves = [cfg.lambda_e * math.pi * colluding_window(cfg) ** 2 for cfg in cfgs]
    assert [montecarlo._block_size(d) for d in eaves] == [256, 512, 1024, 2048, 4096]
    for kind in ("colluding_power", "colluding_degree"):
        assert block_trials(kind, 600, cfg=cfgs[0]) == [256, 256, 88], kind
        assert block_trials(kind, _COLLUDING_B2, cfg=cfgs[3]) == [2048, 2048, 100], kind
    # no block expects more than the draw cap, unless it is a 256-trial block
    for d in [None, 0.0, 1.0, 7.5, 31.9, 32.0, 33.0, 255.0, 256.0, 300.0, 512.0, 1e4, math.inf]:
        size = montecarlo._block_size(d)
        assert montecarlo._BLOCK <= size <= montecarlo._MAX_BLOCK
        assert size == montecarlo._BLOCK or size * d <= montecarlo._BLOCK_DRAWS, d
    assert montecarlo._block_size(None) == montecarlo._block_size(1e4) == montecarlo._BLOCK
    assert montecarlo._block_size(32.0) == 4096 and montecarlo._block_size(33.0) == 2048


def test_absurd_trial_count_is_refused_before_sampling(monkeypatch):
    def sampled(*args, **kwargs):
        pytest.fail("a refused trial count reached the block harness")

    monkeypatch.setattr(montecarlo, "_run_blocks", sampled)
    with pytest.raises(ValueError, match="over the budget of 5e[+]07 trials"):
        _sample("sector_degree", trials=10**12)
    with pytest.raises(ValueError, match="over the budget"):
        _sample("out_degree", trials=montecarlo._TRIAL_BUDGET + 1)


def test_oversized_blocks_are_refused_before_any_block(monkeypatch):
    # a sector per draw, or a window of eavesdroppers per trial, multiplies a
    # block's memory; a first block expecting over _BLOCK_BUDGET elements is
    # refused before anything is drawn
    budget = montecarlo._BLOCK_BUDGET
    assert montecarlo._run_blocks(256, Rng(1), 1, lambda rng, n: n, draws=budget / 256) == [256]
    assert montecarlo._run_blocks(10, Rng(1), 1, lambda rng, n: n, draws=budget / 10) == [10]
    with pytest.raises(ValueError, match="a block of 256 trials expects about 1e[+]07 array elements"):
        montecarlo._run_blocks(300, Rng(1), 1, lambda rng, n: n, draws=budget / 256 * (1 + 1e-9))

    def planned(*args, **kwargs):
        pytest.fail("an oversized block was planned")

    monkeypatch.setattr(montecarlo, "_blocks", planned)
    with pytest.raises(ValueError, match="expects about 2.56e[+]08 array elements, over the budget of 1e[+]07"):
        _sample("sector_degree", L=10**6, trials=1000)
    # b = 1.05: about 1.16e5 eavesdroppers per trial in the default window
    cfg = NetworkConfig(lambda_e=0.1, gain=GainModel("unbounded", 1.05))
    for kind in ("colluding_power", "colluding_degree"):
        with pytest.raises(ValueError, match="over the budget of 1e[+]07"):
            _sample(kind, cfg=cfg, trials=1000)


def test_runs_over_the_work_budget_are_refused_before_any_block(monkeypatch):
    # trials times the points a sampler names: a run at the budget, whatever
    # its blocks, is hours of work; draws are not points and do not count
    budget = montecarlo._WORK_BUDGET
    monkeypatch.setattr(montecarlo, "_blocks", lambda trials, size: [(0, 1)])

    def block(rng, n):
        return n

    assert montecarlo._run_blocks(10**6, Rng(1), 1, block, points=budget / 10**6, size=1) == [1]
    refused = "1000000 trials expect about 2e[+]10 points in all, over the budget of 2e[+]10 points per estimate"
    with pytest.raises(ValueError, match=refused):
        montecarlo._run_blocks(10**6, Rng(1), 1, block, points=budget / 10**6 * (1 + 1e-9), size=1)
    assert montecarlo._run_blocks(10**9, Rng(1), 1, block, draws=200.0) == [1]
    # every spatial sampler names its points: 2e6 trials of in-degree windows
    # at lambda_e 1e-3 (1.6e4 points each), of lognormal fading windows at
    # lambda_e 0.01 (2.0e4), or of guard disks at lambda_e 0.1 and rho_n 1.6
    # (1.6e4, one trial a block)
    def planned(*args, **kwargs):
        pytest.fail("a run over the work budget was planned")

    monkeypatch.setattr(montecarlo, "_blocks", planned)
    cases = [
        ("in_degree", {"cfg": NetworkConfig(lambda_e=1e-3)}),
        ("out_degree", {"cfg": NetworkConfig(lambda_e=0.01, fading=FadingModel("lognormal", sigma_s=1.0))}),
        ("neutralized_degree", {"cfg": NetworkConfig(lambda_e=0.1), "rho_n": 1.6}),
    ]
    for kind, kw in cases:
        with pytest.raises(ValueError, match=r"2000000 trials expect about [34]\.\d+e[+]10 points in all, over the"):
            _sample(kind, trials=2_000_000, **kw)


def test_oversized_fading_window_is_refused_before_any_block(monkeypatch):
    # lognormal fading at lambda_e 1e-4: a window of radius 800, whose
    # 256-trial block would expect 5.15e8 legitimate points
    def planned(*args, **kwargs):
        pytest.fail("an oversized fading window was planned")

    monkeypatch.setattr(montecarlo, "_blocks", planned)
    cfg = NetworkConfig(lambda_e=1e-4, fading=FadingModel("lognormal", sigma_s=1.0))
    with pytest.raises(ValueError, match="a block of 256 trials expects about 5.15e[+]08 array elements, over the"):
        estimate_generic("out_degree", cfg, 1000, Rng(1))


def test_guard_disk_calls_are_chunked_by_their_eavesdroppers(monkeypatch):
    # lambda_e 1e3, rho_n 1: a start window of radius 2 holds 1.26e4
    # eavesdroppers against 28 legitimate points per trial.  Chunked by the
    # legitimate count alone, one call held all 256 trials, 3.2e6
    # eavesdroppers; chunked by the larger field, each trial has its own.
    sizes = []

    def every_eavesdropper_survives(ex, ey, fx, fy, rho_n):
        sizes.append(len(ex))
        return np.ones(len(ex), dtype=bool)

    monkeypatch.setattr(montecarlo, "neutral_survivors", every_eavesdropper_survives)
    _sample("neutralized_degree", cfg=NetworkConfig(lambda_e=1e3), rho_n=1.0, trials=256)
    assert len(sizes) == 256
    assert max(sizes) <= 4 * montecarlo._NEUTRAL_CALL_POINTS


def test_clumped_guard_disk_survivors_are_charged_their_grown_window(monkeypatch):
    # lambda_l 100, lambda_e 1e4, rho_n 0.2: the start window holds 1.43e5
    # eavesdroppers, but survivors come in clumps of about 8.6, one per hole
    # of the guard disks, so trials grow 4-9 times; the window that expects
    # half a clump holds 1.24e6
    def planned(*args, **kwargs):
        pytest.fail("a guard-disk run whose survivors clump past the budget was planned")

    monkeypatch.setattr(montecarlo, "_blocks", planned)
    cfg = NetworkConfig(lambda_l=100.0, lambda_e=1e4)
    assert cfg.lambda_e * math.pi * montecarlo.neutralization_window(cfg, 0.2) ** 2 == pytest.approx(1.43e5, rel=0.01)
    with pytest.raises(ValueError, match=r"guard radius 0.2: about 1.24e\+06 points per trial, over the budget"):
        estimate_generic("neutralized_degree", cfg, 10, Rng(1), rho_n=0.2)


def test_pmf_table_is_bounded_before_it_is_allocated():
    rows = montecarlo._TABLE_ROWS
    assert len(Sample(np.array([0, rows - 1])).pmf().probs) == rows
    # an outcome of 1e12 would need an 8 TB bincount: refused from its value
    with pytest.raises(ValueError, match=f"a PMF table of {rows + 1} rows is longer than the {rows} rows allowed"):
        Sample(np.array([0, rows])).pmf()
    with pytest.raises(ValueError, match="a PMF table of 1000000000001 rows"):
        Sample(np.array([0, 10**12])).pmf()


def test_same_seed_same_pmf_different_seed_differs():
    a, b, c = _sample("out_degree"), _sample("out_degree"), _sample("out_degree", seed=999)
    assert np.array_equal(a.pmf().probs, b.pmf().probs) and a.mean().value == b.mean().value
    assert a.mean().value != c.mean().value


# --------------------------------------------------- agreement with theory

def test_out_degree_exact_route():
    sample = _sample("out_degree", trials=20_000)
    est = sample.mean()
    assert est.value == pytest.approx(CFG.ratio, abs=6 * est.std_error)
    tv = analytic.tv_distance(sample.pmf(), lambda n: analytic.pmf_out_degree(n, 1.0, 0.5))
    assert tv < 0.02


def test_out_degree_depends_only_on_ratio():
    # joint rescaling of both densities leaves the degree law untouched
    pmf_a = _sample("out_degree", trials=20_000, seed=501).pmf()
    cfg_scaled = NetworkConfig(lambda_l=3.0, lambda_e=1.5)
    pmf_b = _sample("out_degree", cfg=cfg_scaled, trials=20_000, seed=502).pmf()
    law = lambda n: analytic.pmf_out_degree(n, 1.0, 0.5)
    assert analytic.tv_distance(pmf_a, law) < 0.02
    assert analytic.tv_distance(pmf_b, law) < 0.02


def test_out_degree_fading_route_keeps_the_law():
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.5, fading=FadingModel("nakagami", m=3.0))
    sample = _sample("out_degree", cfg=cfg, trials=6000, threads=4)
    tv = analytic.tv_distance(sample.pmf(), lambda n: analytic.pmf_out_degree(n, 1.0, 0.5))
    assert tv < 0.03  # the PMF does not feel the fading model
    assert sample.bias_note is not None


def test_in_degree_mean_and_variance():
    sample = _sample("in_degree", trials=6000, threads=4)
    est = sample.mean()
    assert est.value == pytest.approx(2.0, abs=6 * est.std_error)
    m2 = analytic.moments_in_degree(2, 2.0, analytic.TABLE_VORONOI_MOMENTS)
    assert sample.pmf().moment(2) == pytest.approx(m2, rel=0.15)


def _origin_degrees(build, graphs, lambda_e, w_legit, w_eaves, seed):
    """Out- and in-degree of the origin, node 0, in each of `graphs`
    realizations: unit-density legitimate points in radius w_legit and
    eavesdroppers in w_eaves, through build(nodes, eaves, t)."""
    rng = Rng(seed)
    out_deg = np.empty(graphs)
    in_deg = np.empty(graphs)
    for t in range(graphs):
        legit = sample_disk(1.0, w_legit, rng.substream(2 * t))
        eaves = sample_disk(lambda_e, w_eaves, rng.substream(2 * t + 1))
        nodes = PointSet(np.vstack([[0.0, 0.0], legit.xy]), legit.density, w_legit)
        graph = build(nodes, eaves, t)
        out_deg[t] = graph.out_degrees()[0]
        in_deg[t] = graph.in_degrees()[0]
    return out_deg, in_deg


def _assert_law_matches(sample, ref, label):
    """The sampler's mean within 4.5 combined standard errors of the
    reference's, and a two-sample KS test of the whole laws at level 1e-4."""
    est = sample.mean()
    combined = math.hypot(est.std_error, ref.std(ddof=1) / math.sqrt(len(ref)))
    assert abs(est.value - ref.mean()) < 4.5 * combined, label
    assert ks_2samp(sample.values, ref).pvalue > 1e-4, label


def test_degree_estimators_match_baseline_graph():
    # The estimators never build a graph: the out-degree comes from the
    # nearest-eavesdropper distance alone, the in-degree from count_in_cell.
    # Here whole realizations go through build_baseline instead, with the
    # origin as node 0.  Legitimate points fill the in-degree window W, so
    # in-edges from beyond it are missed with expected count 1e-4; the
    # eavesdroppers fill 2W, which holds the disk in which any source within
    # W looks for its nearest one.
    w = in_degree_window(CFG.lambda_l, CFG.lambda_e)
    out_deg, in_deg = _origin_degrees(lambda nodes, eaves, t: build_baseline(nodes, eaves), 4000, 0.5, w, 2 * w, 2718)
    _assert_law_matches(_sample("out_degree", trials=20_000, threads=2), out_deg, "out_degree")
    _assert_law_matches(_sample("in_degree", trials=20_000, threads=2), in_deg, "in_degree")


def test_thresholded_degree_matches_graph():
    # The sampler maps the nearest-eavesdropper distance to a secure range;
    # build_thresholded applies the edge predicate to every pair.  The secure
    # range is below the nearest-eavesdropper distance, so the origin's
    # out-edges are exact unless no eavesdropper lies within W (pi W^2 = 10):
    # probability e^-10.
    cfg = NetworkConfig(lambda_e=1.0, rho=1.0, p_l=5.0)
    w = math.sqrt(10.0 / math.pi)
    out_deg, _ = _origin_degrees(lambda nodes, eaves, t: build_thresholded(nodes, eaves, cfg), 3000, 1.0, w, w, 99)
    _assert_law_matches(_sample("out_degree", cfg=cfg, trials=20_000, threads=2), out_deg, "thresholded")


def test_sector_degree_matches_graph():
    # The sampler treats the L wedges as independent fields; build_sectorized
    # tests each destination against the eavesdroppers in its own wedge of
    # the source.  Each wedge of W (pi W^2 / L = 10) is empty of
    # eavesdroppers with probability e^-10.
    cfg = NetworkConfig(lambda_e=1.0)
    w = math.sqrt(20.0 / math.pi)
    offsets = Rng(100)

    def build(nodes, eaves, t):
        return build_sectorized(nodes, eaves, SectorConfig(L=2), offsets.substream(t))

    out_deg, _ = _origin_degrees(build, 3000, 1.0, w, w, 99)
    _assert_law_matches(_sample("sector_degree", cfg=cfg, L=2, trials=20_000, threads=2), out_deg, "sectors")


def test_fading_out_degree_matches_graph():
    # The spatial route draws one effect per point seen from the origin and
    # counts the legitimate points whose gain beats the best eavesdropper's;
    # build_fading draws one per ordered pair and applies the edge predicate.
    # Both fields fill the route's own window, so the two laws are equal,
    # truncation included.  Both routes draw Z through sample_fading, so one
    # fading kind ties them.  The gain predicate is scale-free: densities
    # (1, 4) give the law of (0.25, 1), with about 28 legitimate points and
    # 113 eavesdroppers per window.
    fading = FadingModel("nakagami", m=2.0)
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=4.0, fading=fading)
    w = fading_window(fading, cfg.lambda_e)
    effects = Rng(200)

    def build(nodes, eaves, t):
        return build_fading(nodes, eaves, cfg, effects.substream(t))

    out_deg, _ = _origin_degrees(build, 3000, cfg.lambda_e, w, w, 201)
    _assert_law_matches(_sample("out_degree", cfg=cfg, trials=20_000, threads=2), out_deg, fading.kind)


def test_isolation_dual_route_consistency():
    out = _sample("out_degree", trials=30_000, threads=4)
    into = estimate_generic("in_degree", CFG, 30_000, Rng(1234).substream(1), threads=4)
    p_out_sim, p_in_sim = Sample(out.values == 0).mean(), Sample(into.values == 0).mean()
    p_out = analytic.p_out_isolation(1.0, 0.5)
    assert p_out_sim.value == pytest.approx(p_out, abs=6 * p_out_sim.std_error)
    # the direct in-degree zero frequency must agree with the area-sample route
    areas = estimate_generic("voronoi_area", None, 3000, Rng(77), threads=4).values
    via_areas = Sample(np.exp(-CFG.ratio * areas)).mean()
    gap = abs(p_in_sim.value - via_areas.value)
    combined = math.hypot(p_in_sim.std_error, via_areas.std_error)
    assert gap < 6 * combined


@pytest.mark.parametrize("r0, r1", [(0.0, 3.0), (3.0, 4.5)])
def test_annuli_draw_follows_the_poisson_law(r0, r1):
    # the polar draw: r^2 uniform on [r0^2, r1^2), the angle uniform within
    # each half of the radii (so independent of the radius), per-trial counts
    # Poisson, and the coordinates on the drawn radius to within 4 ulp
    trials = 3000
    seg, r2, x, y = montecarlo._annuli_draw(np.random.default_rng(23), 1.0, r0, r1, np.arange(trials))
    lo, hi = r0 * r0, r1 * r1
    assert seg.size == r2.size == x.size == y.size and (np.diff(seg) >= 0).all()
    assert ((r2 >= lo) & (r2 < hi)).all()
    assert kstest(r2, uniform(lo, hi - lo).cdf).pvalue > 1e-4
    angle = np.arctan2(y, x)
    for half in (r2 < (lo + hi) / 2, r2 >= (lo + hi) / 2):
        assert kstest(angle[half], uniform(-math.pi, 2 * math.pi).cdf).pvalue > 1e-4
    assert (np.abs(x * x + y * y - r2) <= 4 * np.finfo(float).eps * r2).all()
    # counts against Poisson(pi (r1^2 - r0^2)), the tails pooled into bins
    # that expect at least 5 trials
    law = poisson(math.pi * (hi - lo))
    edges = np.arange(law.ppf(5 / trials), law.isf(5 / trials))
    counts = np.bincount(seg, minlength=trials)
    observed = np.histogram(counts, np.concatenate([[-np.inf], edges + 0.5]))[0]
    observed = np.append(observed, trials - observed.sum())
    expected = trials * np.diff(np.concatenate([[0.0], law.cdf(edges), [1.0]]))
    assert chisquare(observed, expected).pvalue > 1e-4


def test_annuli_draw_of_empty_fields():
    g = np.random.default_rng(1)
    for lam, trials in ((0.0, np.arange(5)), (1.0, np.arange(0))):
        seg, r2, x, y = montecarlo._annuli_draw(g, lam, 0.0, 2.0, trials)
        assert seg.size == r2.size == x.size == y.size == 0
        assert r2.dtype == x.dtype == y.dtype == np.float64


def test_voronoi_moments_near_table():
    areas = estimate_generic("voronoi_area", None, 4000, Rng(5), threads=4).values
    assert len(areas) == 4000
    moments = [np.mean(areas**k) for k in range(1, 5)]
    for got, want, tol in zip(moments, analytic.TABLE_VORONOI_MOMENTS.moments, (0.02, 0.06, 0.12, 0.3)):
        assert got == pytest.approx(want, rel=tol)


def test_voronoi_blocks_extend_only_unsafe_trials(monkeypatch):
    # one batched cell_area call per block at the start window W = 3, plus one
    # per extension round with the unsafe trials alone (about 2% of trials;
    # 19 and 29 of the two 1024-trial blocks here).  A safety rule that
    # failed every trial would grow every block by 2.25x in points per round,
    # so the check comes before the kernel runs.
    calls = []

    def traced(x, y, seg, n, half_width):
        trials = int(np.count_nonzero(np.bincount(seg, minlength=n)))
        assert half_width == 1.5 or trials <= 64, f"{trials} trials extended to half-width {half_width}"
        calls.append((half_width, trials))
        return kernels.cell_area(x, y, seg, n, half_width)

    monkeypatch.setattr(montecarlo, "cell_area", traced)
    assert len(estimate_generic("voronoi_area", None, 2048, Rng(5)).values) == 2048
    assert [t for hw, t in calls if hw == 1.5] == [1024] * 2
    assert len(calls) <= 6


def test_thresholded_mean_tracks_quadrature():
    cfg = NetworkConfig(lambda_e=0.5, rho=1.0, p_l=5.0)
    est = _sample("out_degree", cfg=cfg, trials=40_000, threads=4).mean()
    exact, bound = analytic.mean_out_degree_thresholded(cfg)
    assert exact <= bound
    assert est.value == pytest.approx(exact, abs=6 * est.std_error)


def test_one_sector_draws_follow_the_threshold_and_noise():
    # out_degree, sector_degree at L = 1 and neutralized_degree at rho_n = 0
    # are one draw, which maps the nearest eavesdropper's distance through
    # the secure range: with rho = 2 and sigma2_e = 4 its mean is 2.99, not
    # the lambda_l/lambda_e = 10 of the plain distance
    cfg = NetworkConfig(lambda_e=0.1, p_l=5.0, rho=2.0, sigma2_e=4.0)
    exact, _ = analytic.mean_out_degree_thresholded(cfg)
    samples = [
        _sample("out_degree", cfg=cfg, trials=40_000),
        _sample("sector_degree", cfg=cfg, trials=40_000, L=1),
        _sample("neutralized_degree", cfg=cfg, trials=40_000, rho_n=0.0),
    ]
    for sample in samples:
        est = sample.mean()
        assert abs(est.value - exact) < 3 * est.std_error
        assert np.array_equal(sample.values, samples[0].values)


def test_sectors_refuse_a_threshold():
    # no law covers sectors under a threshold or unequal noise
    for cfg, field in [
        (NetworkConfig(lambda_e=0.5, rho=1.0), "rho"),
        (NetworkConfig(lambda_e=0.5, sigma2_e=2.0), "sigma2_e"),
    ]:
        with pytest.raises(ValueError, match=f"sector_degree with L=2 sectors does not model {field}"):
            _sample("sector_degree", cfg=cfg, L=2, trials=100)


def test_sector_mean_scales_with_L():
    est = _sample("sector_degree", L=4, trials=20_000, threads=4).mean()
    assert est.value == pytest.approx(4 * CFG.ratio, abs=6 * est.std_error)


@pytest.mark.parametrize("L", [2, 3, 8])
def test_sector_draw_matches_per_wedge_poisson_sum(L):
    # given the wedges' nearest-eavesdropper distances, the sampler draws one
    # Poisson of their summed mean; the oracle draws a Poisson per wedge, over
    # the same distance law, and sums them
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.4)
    g = np.random.default_rng(600 + L)
    dmin2 = g.exponential(scale=L / (math.pi * cfg.lambda_e), size=(20_000, L))
    ref = g.poisson(cfg.lambda_l * math.pi / L * dmin2).sum(axis=1)
    _assert_law_matches(_sample("sector_degree", cfg=cfg, L=L, trials=20_000), ref, f"L={L}")


@pytest.mark.parametrize(
    "cfg", [NetworkConfig(lambda_e=0.3), NetworkConfig(lambda_e=0.3, p_l=5.0, rho=1.0, sigma2_e=2.0)],
    ids=["plain", "thresholded"],
)
def test_one_sector_draw_keeps_its_bits(cfg):
    # at L = 1, plain or thresholded, the draw is the (trials, 1) Poisson
    # array summed over its one column, as before the sectors shared a draw
    trials, seed = 10_000, 77  # two full blocks and a partial one
    size = montecarlo._block_size(1)
    want = []
    for i, n in montecarlo._blocks(trials, size):
        g = Rng(seed).substream(i).generator()
        dmin2 = g.exponential(scale=1.0 / (math.pi * cfg.lambda_e), size=(n, 1))
        if cfg.rho > 0:
            psi = secure_range_thresholded(np.sqrt(dmin2), cfg)
            lam = cfg.lambda_l * math.pi * psi * psi
        else:
            lam = cfg.lambda_l * math.pi * dmin2
        want.append(g.poisson(lam=lam).sum(axis=1))
    got = _sample("sector_degree", cfg=cfg, L=1, trials=trials, seed=seed).values
    assert got.dtype == np.int64 and np.array_equal(got, np.concatenate(want))


def test_neighbor_cdf_tracks_quadrature():
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1)
    grid = (0.0, 0.5, 1.0, 2.0, 4.0)
    values, ses = _sample("neighbor_msr", cfg=cfg, trials=20_000, threads=4).ecdf(grid)
    want = analytic.cdf_msr_neighbor(grid, 1, cfg)
    for v, se, w in zip(values, ses, want):
        assert v == pytest.approx(w, abs=max(6 * se, 1e-3))


def test_neighbor_msr_matches_realizations():
    # The sampler draws the squared distances to the i-th nearest legitimate
    # point and to the nearest eavesdropper as Gamma and exponential arrival
    # times.  Here both distances are read off Poisson realizations and pass
    # through msr_link.  At the neighbor_msr criterion's config the windows
    # hold fewer than i legitimate points, or no eavesdropper, with
    # probability below 1e-10.
    cfg = NetworkConfig(lambda_l=1.0, lambda_e=0.1, p_l=10.0)
    i = 2
    rng = Rng(300)
    ref = np.empty(2000)
    for t in range(len(ref)):
        r_l = sample_disk(cfg.lambda_l, 3.0, rng.substream(2 * t)).ordered_r[i - 1]
        r_e = sample_disk(cfg.lambda_e, 10.0, rng.substream(2 * t + 1)).ordered_r[0]
        ref[t] = msr_link(cfg.p_l * gain(cfg.gain, r_l), cfg.p_l * gain(cfg.gain, r_e), cfg.sigma2_l, cfg.sigma2_e)
    sample = _sample("neighbor_msr", cfg=cfg, neighbor_index=i, trials=20_000, threads=2)
    _assert_law_matches(sample, ref, "neighbor_msr")


def test_colluding_power_matches_stable_median():
    cfg = NetworkConfig(lambda_e=0.5)
    w = colluding_window(cfg)
    samples = estimate_generic("colluding_power", cfg, 20_000, Rng(31), threads=4, r_window=w).values
    b = cfg.gain.b
    scale = (math.pi * cfg.lambda_e / analytic.c_alpha(1.0 / b)) ** b * cfg.p_l
    # Levy median: x with 2 Phi(-1/sqrt(x)) = 1/2 -> x = 1/ndtri(0.75)^2
    from scipy.special import ndtri

    med = scale / ndtri(0.75) ** 2
    frac = float(np.mean(samples <= med))
    assert frac == pytest.approx(0.5, abs=0.02)


def test_colluding_power_no_eavesdroppers():
    samples = estimate_generic("colluding_power", NetworkConfig(lambda_e=0.0), 100, Rng(3), r_window=10.0).values
    assert len(samples) == 100 and np.all(samples == 0.0)


def _colluding_tail(cfg, w):
    b = cfg.gain.b
    return 2.0 * math.pi * cfg.lambda_e * cfg.p_l * w ** (2.0 - 2.0 * b) / (2.0 * b - 2.0)


def _bincount_powers(cfg, w, rng, n):
    """Eavesdropper counts, uniforms and windowed powers of one colluding
    block, each point's P_l (W^2 U)^(-b) summed through a per-point trial
    index: the reference for the in-place run sums."""
    g = rng.generator()
    ne = g.poisson(cfg.lambda_e * math.pi * w * w, size=n)
    u = g.random(int(ne.sum()))
    with np.errstate(over="ignore", divide="ignore"):
        powers = cfg.p_l * (w * w * u) ** (-cfg.gain.b)
    return ne, u, np.bincount(np.repeat(np.arange(n), ne), weights=powers, minlength=n)


def test_colluding_run_sums_match_bincount():
    # One expected eavesdropper per trial leaves about a third of the runs
    # empty: take the first seed whose one-block draw has empty runs at the
    # first, a middle and the last trial, and a run of two or more.
    cfg = NetworkConfig(lambda_e=0.5, p_l=3.0, gain=GainModel("unbounded", 1.5))
    w = math.sqrt(1.0 / (math.pi * cfg.lambda_e))
    n = 12
    for seed in range(1000):
        ne, _, ref = _bincount_powers(cfg, w, Rng(seed).substream(0), n)
        if ne[0] == 0 and ne[-1] == 0 and np.any(ne[1:-1] == 0) and np.any(ne > 1):
            break
    else:
        pytest.fail("no seed drew the wanted empty runs")
    got = estimate_generic("colluding_power", cfg, n, Rng(seed), r_window=w).values
    tail = _colluding_tail(cfg, w)
    assert np.all(got[ne == 0] == tail)
    assert np.all(got[ne > 0] > tail)
    assert np.allclose(got, ref + tail, rtol=1e-13, atol=0.0)


def test_colluding_power_all_runs_empty():
    # 1.6e-8 expected eavesdroppers per trial: every run of all three blocks
    # is empty, so each power is the tail term alone
    cfg = NetworkConfig(lambda_e=0.5)
    w = 1e-4
    samples = estimate_generic("colluding_power", cfg, 600, Rng(3), r_window=w).values
    assert len(samples) == 600 and np.all(samples == _colluding_tail(cfg, w))


@pytest.mark.parametrize("b,lambda_e,w", [(1.5, 0.5, 0.8), (3.0, 0.1, 2.0), (6.0, 0.2, 1.5)])
def test_colluding_power_is_the_per_point_sum_plus_tail(b, lambda_e, w):
    # on the same uniforms, every trial of every block is the per-point sum
    # plus the tail to 1e-12, and a trial without an eavesdropper the tail
    cfg = NetworkConfig(lambda_e=lambda_e, p_l=3.0, gain=GainModel("unbounded", b))
    trials, seed = 10_000, 41  # about one eavesdropper per trial: 4096-trial blocks
    got = estimate_generic("colluding_power", cfg, trials, Rng(seed), r_window=w).values
    size = montecarlo._block_size(cfg.lambda_e * math.pi * w * w)
    parts = [_bincount_powers(cfg, w, Rng(seed).substream(i), n) for i, n in montecarlo._blocks(trials, size)]
    ne = np.concatenate([p[0] for p in parts])
    ref = np.concatenate([p[2] for p in parts]) + _colluding_tail(cfg, w)
    assert len(parts) > 1 and np.sum(ne == 0) > 10
    assert np.all(got[ne == 0] == _colluding_tail(cfg, w))
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")  # the U^(-b) above 1e308
def test_colluding_power_has_no_nan_at_large_b():
    # at b = 300 and W = 10 the per-trial factor P_l W^(-2b) underflows to 0
    # while U^(-b) overflows for U < 0.094, so factoring it out of the sum
    # would read 0 * inf = NaN; each point's exp(c0 - b ln U) keeps the
    # range of P_l (W^2 U)^(-b), finite for U above 9.4e-4
    b, w = 300.0, 10.0
    cfg = NetworkConfig(lambda_e=2.0 / (math.pi * w * w), gain=GainModel("unbounded", b))
    assert cfg.p_l * w ** (-2.0 * b) == 0.0
    n, seed = 2000, 43
    got = estimate_generic("colluding_power", cfg, n, Rng(seed), r_window=w).values
    _, u, ref = _bincount_powers(cfg, w, Rng(seed).substream(0), n)
    with np.errstate(over="ignore"):
        assert np.any(np.isinf(u ** -b) & (u > 9.4e-4))
    assert not np.any(np.isnan(got))
    finite = np.isfinite(ref)
    assert finite.sum() > 0.9 * n and np.all(np.isinf(got[~finite]))
    assert np.allclose(got[finite], ref[finite], rtol=1e-12, atol=0.0)


def test_colluding_requires_converging_exponent():
    cfg = NetworkConfig(gain=GainModel("unbounded", 1.0))
    with pytest.raises(ValueError):
        estimate_generic("colluding_power", cfg, 100, Rng(3), r_window=10.0)
    with pytest.raises(ValueError):
        _sample("colluding_degree", cfg=cfg, trials=64)


def test_colluding_mean_degree_tracks_sinc():
    est = _sample("colluding_degree", trials=30_000, threads=4).mean()
    want = analytic.mean_degree_colluding(CFG)
    assert est.value == pytest.approx(want, abs=6 * est.std_error)


# colluding_msr sums one realization's eavesdropper powers in its disk of
# radius W and adds the mean of the tail beyond W, as the colluding samplers
# do at r_window = W.  At W = 1.5 the tail is a large share of the aggregate
# (0.70 against 3.5 expected eavesdroppers in the disk), so both terms count.
_COLLUDING_CHECK = NetworkConfig(lambda_l=1.0, lambda_e=0.5, sigma2_e=2.0)
_COLLUDING_CHECK_W = 1.5


def test_colluding_power_matches_colluding_msr():
    # a link of length 0.7, secure in about half the trials, has one secrecy
    # rate law on both routes
    cfg, w, r_l = _COLLUDING_CHECK, _COLLUDING_CHECK_W, 0.7
    rng = Rng(400)
    ref = np.array([colluding_msr(r_l, sample_disk(cfg.lambda_e, w, rng.substream(t)), cfg) for t in range(4000)])
    power = estimate_generic("colluding_power", cfg, 20_000, Rng(401), threads=2, r_window=w).values
    rates = Sample(msr_link(cfg.p_l * gain(cfg.gain, r_l), power, cfg.sigma2_l, cfg.sigma2_e))
    _assert_law_matches(rates, ref, "colluding_power")


def test_colluding_degree_matches_colluding_msr():
    # The sampler draws a Poisson count in the secure disk of one aggregate
    # power; here each legitimate point of a realization gets its own
    # colluding_msr link to the origin.  The aggregate is at least the mean
    # tail, so no secure link is longer than (c / tail)^(1/2b): the legitimate
    # disk of that radius holds every secure neighbour.
    cfg, w = _COLLUDING_CHECK, _COLLUDING_CHECK_W
    c = cfg.p_l * cfg.sigma2_e / cfg.sigma2_l
    w_legit = (c / _colluding_tail(cfg, w)) ** (1.0 / (2.0 * cfg.gain.b))
    rng = Rng(500)
    ref = np.empty(2500)
    for t in range(len(ref)):
        legit = sample_disk(cfg.lambda_l, w_legit, rng.substream(2 * t))
        eaves = sample_disk(cfg.lambda_e, w, rng.substream(2 * t + 1))
        ref[t] = sum(colluding_msr(r, eaves, cfg) > 0.0 for r in legit.ordered_r)
    sample = estimate_generic("colluding_degree", cfg, 20_000, Rng(501), threads=2, r_window=w)
    _assert_law_matches(sample, ref, "colluding_degree")


def test_neutralization_meets_lower_bound():
    est = _sample("neutralized_degree", rho_n=0.5, trials=2000, cfg=NetworkConfig(lambda_e=0.5), threads=4).mean()
    lb = analytic.mean_out_degree_neutralization_lb(0.5, 1.0, 0.5)
    assert est.value >= lb - 4 * est.std_error


def _fixed_window_neutralized_degrees(cfg, rho_n, w, trials, seed):
    """Origin degrees from whole realizations: legitimate points (the origin
    among them) in radius w + rho_n, eavesdroppers in w, the survivors that
    effective_eaves keeps, and the legitimate points nearer than the nearest
    survivor.  w must leave a survivor in every trial."""
    rng = Rng(seed)
    degrees = np.empty(trials)
    for t in range(trials):
        legit = sample_disk(cfg.lambda_l, w + rho_n, rng.substream(2 * t))
        eaves = sample_disk(cfg.lambda_e, w, rng.substream(2 * t + 1))
        nodes = PointSet(np.vstack([[0.0, 0.0], legit.xy]), legit.density, legit.window_radius)
        keep = effective_eaves(nodes, eaves, NeutralizationConfig(rho_n))
        nearest2 = float(np.min(np.sum(eaves.xy[keep] ** 2, axis=1)))
        degrees[t] = np.count_nonzero(np.sum(legit.xy**2, axis=1) < nearest2)
        if t < 50:  # the distance rule is the origin's edge predicate
            graph = build_neutralized(nodes, eaves, NeutralizationConfig(rho_n))
            assert graph.out_degrees()[0] == degrees[t]
    return degrees


def test_neutralization_mean_matches_fixed_window_oracle():
    # At this corner the start window (radius 2 rho_n) holds fewer than one
    # expected survivor, so most trials grow it; the oracle's window W=6
    # misses a survivor with probability about exp(-25).  Counting the
    # origin in its own degree would add 1 (17% of the mean); letting it
    # neutralize nothing would remove about 10%.  Both exceed the gate at
    # these trial counts.
    cfg = NetworkConfig(lambda_e=0.5)
    ref = _fixed_window_neutralized_degrees(cfg, 0.5, 6.0, 10_000, seed=4242)
    est = _sample("neutralized_degree", cfg=cfg, rho_n=0.5, trials=10_000, threads=2).mean()
    combined = math.hypot(est.std_error, ref.std(ddof=1) / math.sqrt(len(ref)))
    assert abs(est.value - ref.mean()) < 4.5 * combined


def test_neutralization_mean_does_not_depend_on_start_window(monkeypatch):
    # With the start window at its 2 rho_n floor, trials grow through
    # several annuli; filtering an annulus against too few legitimate
    # points would show as a shift of the mean.
    cfg = NetworkConfig(lambda_e=0.1)
    usual = _sample("neutralized_degree", cfg=cfg, rho_n=1.0, trials=3000, threads=2)
    monkeypatch.setattr(montecarlo, "_NEUTRAL_START_SURVIVORS", 0.01)
    grown = _sample("neutralized_degree", cfg=cfg, rho_n=1.0, trials=3000, seed=4321, threads=2)
    assert _growths_per_trial(grown) > 2.5 * _growths_per_trial(usual)
    a, b = grown.mean(), usual.mean()
    assert abs(a.value - b.value) < 4.5 * math.hypot(a.std_error, b.std_error)


def test_neutralized_degrees_match_a_brute_force_count_over_their_draws(monkeypatch):
    # Growth 1.1 from a start window of 2 rho_n: each round's shell
    # [we - rho_n, w_new + rho_n] reaches back over several earlier rings,
    # so a filter set built from the wrong rings leaves some eavesdropper
    # unneutralized (or neutralizes one wrongly) and moves a degree.
    cfg, rho_n, m = NetworkConfig(lambda_l=1.0, lambda_e=0.5), 0.5, 64
    draws = []

    def recorded(g, lam, r0, r1, trials):
        out = draw(g, lam, r0, r1, trials)
        draws.append((lam, *out))
        return out

    draw = montecarlo._annuli_draw
    monkeypatch.setattr(montecarlo, "_annuli_draw", recorded)
    monkeypatch.setattr(montecarlo, "_NEUTRAL_GROWTH", 1.1)
    degrees, growths = montecarlo._neutralized_degrees(np.random.default_rng(37), cfg, rho_n, 2.0 * rho_n, m)
    assert growths > 2 * m
    field = {lam: [np.concatenate(c) for c in zip(*(d[1:] for d in draws if d[0] == lam))] for lam in (1.0, 0.5)}
    (lseg, lr2, lx, ly), (eseg, er2, ex, ey) = field[1.0], field[0.5]
    for t in range(m):
        lt, et = lseg == t, eseg == t
        # the origin neutralizes too
        fx, fy = np.append(lx[lt], 0.0), np.append(ly[lt], 0.0)
        d2 = (ex[et][:, None] - fx[None, :]) ** 2 + (ey[et][:, None] - fy[None, :]) ** 2
        survives = ~(d2 <= rho_n**2).any(axis=1)
        best = er2[et][survives].min()
        assert degrees[t] == np.count_nonzero(lr2[lt] < best), t


def _growths_per_trial(sample):
    growths, trials = re.search(r"(\d+) growths in (\d+) trials", sample.bias_note).groups()
    return int(growths) / int(trials)


def test_neutralization_window_growth_rate():
    # Were survivors Poisson, a window holding c expected survivors would
    # hold none with probability exp(-c), and each growth multiplies its area
    # by _NEUTRAL_GROWTH^2.  Survivors cluster in the holes of the legitimate
    # field, so windows come up empty a little more often (1.26x here).
    c = montecarlo._NEUTRAL_START_SURVIVORS
    designed = sum(math.exp(-c * montecarlo._NEUTRAL_GROWTH ** (2 * k)) for k in range(20))
    sample = _sample("neutralized_degree", cfg=NetworkConfig(lambda_e=0.5), rho_n=1.0, trials=3000, threads=2)
    rate = _growths_per_trial(sample)
    assert 0.8 * designed < rate < 1.5 * designed
