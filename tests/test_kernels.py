"""Backend selection, the kernel loader, the compiled kernel's argument
checks and bit-identity of the two kernels' fills and batched walks."""

import ast
import importlib.machinery
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nitm
from nitm import BlasiusFamilyRhs, State3, kernels, scaling, solvers
from nitm import _kernels_py
from nitm.errors import ScalingBreakdownError
from rk4_reference import rk4_step, rk4_update

# the compiled kernel, installed or built into the cache, also when
# NITM_PURE makes the pure one active: the parity tests run either way
try:
    _kernels_c = kernels._load_compiled()[0]
except (ImportError, OSError):
    _kernels_c = None

needs_compiled = pytest.mark.skipif(_kernels_c is None,
                                    reason="compiled kernel not built")

# the compiler nitm.kernels runs to build _kernels.c on first import
COMPILER = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc")[0]
needs_compiler = pytest.mark.skipif(shutil.which(COMPILER) is None,
                                    reason=f"no C compiler {COMPILER!r}")
PURE_FORCED = os.environ.get("NITM_PURE", "") not in ("", "0")


def _run_fill(module, beta, initial, h, n):
    f = np.full(n + 1, np.nan)
    fp = np.full(n + 1, np.nan)
    fpp = np.full(n + 1, np.nan)
    f[0], fp[0], fpp[0] = initial
    bad = module.fill_blasius_family(beta, f, fp, fpp, h, 0, n)
    return bad, f, fp, fpp


def test_backend_is_reported():
    assert kernels.BACKEND in ("compiled", "pure")
    assert kernels.BACKEND_REASON
    assert callable(kernels.fill_blasius_family)
    assert callable(kernels.walk_blasius_family)


@needs_compiler
@pytest.mark.skipif(PURE_FORCED, reason="NITM_PURE is set")
def test_compiled_backend_is_active_where_a_compiler_is():
    # otherwise every needs_compiled test would skip unnoticed
    assert kernels.BACKEND == "compiled", kernels.BACKEND_REASON
    assert _kernels_c is not None
    assert kernels.fill_blasius_family is _kernels_c.fill_blasius_family
    assert kernels.walk_blasius_family is _kernels_c.walk_blasius_family


def test_pure_kernel_matches_single_python_step():
    bad, f, fp, fpp = _run_fill(_kernels_py, 0.5, (0.0, 0.0, 1.0), 0.1, 1)
    assert bad == -1
    step = rk4_step(BlasiusFamilyRhs(0.5), 0.0, State3(0.0, 0.0, 1.0), 0.1)
    assert (f[1], fp[1], fpp[1]) == tuple(step)


@needs_compiled
@pytest.mark.parametrize("beta, initial, h, n", [
    (0.5, (0.0, 0.0, 1.0), 0.01, 800),        # classic
    (0.5, (0.0, -5.0, 1.0), 0.001, 4000),      # violent moving-wall row
    (1.0, (-1.0, 0.0, 1.0), 0.01, 600),        # gasification
    (0.5, (0.0, 1.0, -1.0), 0.01, 1600),       # minus branch
])
def test_compiled_and_pure_fills_are_bit_identical(beta, initial, h, n):
    bad_c, *arrays_c = _run_fill(_kernels_c, beta, initial, h, n)
    bad_p, *arrays_p = _run_fill(_kernels_py, beta, initial, h, n)
    assert bad_c == bad_p
    for compiled, pure in zip(arrays_c, arrays_p):
        assert np.array_equal(compiled, pure, equal_nan=True)


@needs_compiled
def test_blowup_index_and_prefix_agree():
    # Gasification with a large transfer number overflows the guard
    # mid-grid; both kernels must stop at the same node and leave the
    # failed slot unwritten.
    args = (1.0, (-20.0, 0.0, 1.0), 0.01, 400)
    bad_c, *arrays_c = _run_fill(_kernels_c, *args)
    bad_p, *arrays_p = _run_fill(_kernels_py, *args)
    assert bad_c == bad_p
    assert 0 < bad_c <= 400
    for compiled, pure in zip(arrays_c, arrays_p):
        assert np.isnan(compiled[bad_c]) and np.isnan(pure[bad_p])
        assert np.all(np.isfinite(compiled[:bad_c]))
        assert np.array_equal(compiled[:bad_c], pure[:bad_p])


# a NaN with a payload of its own, so that a node is "unchanged" only
# if its bits are
_SENTINEL = np.array([0x7FF8DEAD0000BEEF], dtype=np.uint64).view(np.float64)[0]


def _run_sub_fill(module, beta, state, h, start, stop, nodes):
    f, fp, fpp = (np.full(nodes, _SENTINEL) for _ in range(3))
    f[start], fp[start], fpp[start] = state
    bad = module.fill_blasius_family(beta, f, fp, fpp, h, start, stop)
    return bad, [a.view(np.uint64) for a in (f, fp, fpp)]


@needs_compiled
@pytest.mark.parametrize("beta, state, h, start, stop, nodes, bad", [
    (0.5, (0.3, 0.2, 0.4), 0.01, 300, 500, 700, -1),    # mid-buffer
    (1.0, (-0.5, 0.1, 1.0), 0.05, 1, 2, 6, -1),         # one step
    (0.5, (1.0, 1.0, -0.1), 0.01, 7, 7, 10, -1),        # no step
    (0.5, (0.0, 0.0, 1.0), 0.1, 40, 99, 100, -1),       # to the last node
    (0.5, (0.0, 0.0, 1e12), 1.0, 5, 9, 12, 6),          # blows up at once
])
def test_fill_of_a_sub_range_writes_only_that_range(beta, state, h, start,
                                                     stop, nodes, bad):
    bad_c, arrays_c = _run_sub_fill(_kernels_c, beta, state, h, start, stop, nodes)
    bad_p, arrays_p = _run_sub_fill(_kernels_py, beta, state, h, start, stop, nodes)
    assert bad_c == bad_p == bad
    sentinel = _SENTINEL.view(np.uint64)
    written = stop if bad_c < 0 else bad_c - 1
    for compiled, pure, initial in zip(arrays_c, arrays_p, state):
        assert np.all(compiled[:start] == sentinel)
        assert compiled[start] == np.float64(initial).view(np.uint64)
        assert np.all(compiled[written + 1:] == sentinel)
        assert np.array_equal(compiled, pure)


_FINITE = st.one_of(st.floats(-10.0, 10.0), st.floats(-1e13, 1e13))


@needs_compiled
@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0.5, 1.0]), st.tuples(_FINITE, _FINITE, _FINITE),
       st.floats(1e-4, 1.0), st.integers(0, 400))
def test_fills_are_bit_identical_for_random_states(beta, initial, h, n):
    # large states and steps blow up, so the blow-up index and the
    # unwritten tail are compared as well
    bad_c, *arrays_c = _run_fill(_kernels_c, beta, initial, h, n)
    bad_p, *arrays_p = _run_fill(_kernels_py, beta, initial, h, n)
    assert bad_c == bad_p
    for compiled, pure in zip(arrays_c, arrays_p):
        assert np.array_equal(compiled, pure, equal_nan=True)


def _read_only(n):
    array = np.zeros(n)
    array.setflags(write=False)
    return array


@needs_compiled
@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("make_bad", [
    lambda n: np.zeros(n, dtype=np.float32),
    lambda n: np.zeros(2 * n)[::2],
    _read_only,
    lambda n: np.zeros((n, 1)),
    lambda n: [0.0] * n,
], ids=["float32", "strided", "read-only", "2-d", "list"])
def test_compiled_kernel_rejects_unusable_arrays(slot, make_bad):
    arrays = [np.ones(11) for _ in range(3)]
    arrays[slot] = make_bad(11)
    with pytest.raises((TypeError, ValueError)):
        _kernels_c.fill_blasius_family(0.5, *arrays, 0.1, 0, 10)
    assert all(np.all(np.asarray(a) == (0.0 if i == slot else 1.0))
               for i, a in enumerate(arrays))


@needs_compiled
@pytest.mark.parametrize("slot", [0, 1, 2])
@pytest.mark.parametrize("start, stop", [(0, 8), (5, 4), (-1, 3), (6, 6)],
                         ids=["stop-past-end", "start-after-stop",
                              "negative-start", "start-past-end"])
def test_compiled_kernel_rejects_nodes_outside_a_buffer(slot, start, stop):
    # the buffer in slot has 6 nodes, the other two 11
    arrays = [np.zeros(11) for _ in range(3)]
    arrays[slot] = np.zeros(6)
    with pytest.raises(IndexError):
        _kernels_c.fill_blasius_family(0.5, *arrays, 0.1, start, stop)
    assert not any(a.any() for a in arrays)


# -- the batched walk ---------------------------------------------------------

def _hex_rows(rows):
    """Walk rows, which have four fields, with each float as its hex."""
    return [(outcome, tuple(map(float.hex, lambdas)),
             None if fp_stop is None else fp_stop.hex(), bad)
            for outcome, lambdas, fp_stop, bad in rows]


def _walk_rows(module, *args):
    return _hex_rows(module.walk_blasius_family(*args))


_SEEDS = st.tuples(st.floats(-3.0, 3.0), st.floats(-6.0, 6.0),
                   st.sampled_from([1.0, -1.0]))


@needs_compiled
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.5, 1.0]), st.sampled_from([0.01, 0.05, 0.2]),
       st.lists(st.integers(1, 60), min_size=1, max_size=5),
       st.lists(st.tuples(_SEEDS, st.floats(-3.0, 3.0)), max_size=70),
       st.sampled_from([1e-3, 1e-6, 1e-12]))
def test_compiled_and_pure_walks_are_bit_identical(beta, h, gaps, members, tol):
    # random seeds and offsets reach every outcome: agreement, blow-up,
    # breakdown and no agreement, in up to three blocks of up to LANES
    stops = [sum(gaps[:j + 1]) for j in range(len(gaps))]
    seeds = [seed for seed, _ in members]
    offsets = [offset for _, offset in members]
    args = (beta, h, stops, seeds, offsets, tol)
    compiled = _walk_rows(_kernels_c, *args)
    # every field of every row: outcome, lambdas, fp_stop and blow-up node
    assert compiled == _walk_rows(_kernels_py, *args)
    for outcome, lambdas, fp_stop, bad in compiled:
        # a breakdown's last stop is walked but has no lambda
        walked = len(lambdas) + (outcome == _kernels_py.BREAKDOWN)
        assert walked <= len(stops)
        assert (fp_stop is None) == (walked == 0)
        assert (bad >= 0) == (outcome == _kernels_py.BLOWUP)


def _state_at(beta, h, seed, node):
    """The state at node, stepped by the reference RK4 with no blow-up test."""
    state = State3(*seed)
    for i in range(node):
        state = rk4_update(BlasiusFamilyRhs(beta), i * h, state, h)
    return state


# members the compiled walk steps side by side in a block
LANES = int(re.search(r"(?m)^#define LANES (\d+)$", (
    Path(nitm.__file__).parent / "_kernels.c").read_text())[1])


# 45 members walked on the default schedule: on the first interval a
# full block of LANES = 32 lanes and a block of the other 13, which is a
# whole number of neither clone's vectors (8 or 4 doubles), so that block
# steps pad lanes. Each block holds
# - a member that passes 1e12 while finite, between node 0 and the first stop;
# - one that turns non-finite at node 1: all NaN from (1e100, 0, 1e300),
#   so that no node's maximum passes the limit, and an infinity from
#   (0, 0, 1e150);
# - with a large offset that keeps fp + offset positive, one that passes
#   1e12 on the second or the third interval.
# The first block also holds (2e12, -5e11, 0): f falls by 5e9 a node while
# fp and fpp stay put, so it is past the limit on nodes 1 to 199 and
# back inside it by the first stop, where only the running maximum has
# seen it. The others are moving-wall seeds, which go on and are accepted.
_FALLBACK_MEMBERS = (
    [((0.0, b, 1.0), b) for b in np.linspace(-1.5, 1.9, 28).tolist()]
    + [((0.0, 0.0, -1.0), 0.0), ((1e100, 0.0, 1e300), 0.0),
       ((0.0, 0.0, -0.3), 1000.0), ((2e12, -5e11, 0.0), 1e12)]
    + [((0.0, b, 1.0), b) for b in np.linspace(0.1, 1.8, 10).tolist()]
    + [((0.0, 0.0, -3.0), 0.0), ((0.0, 0.0, 1e150), 0.0),
       ((0.0, 0.0, -0.2), 1000.0)])


def _fallback_walk_args():
    cfg = solvers.DEFAULT_CONFIG
    return (0.5, cfg.step, cfg.stops, [seed for seed, _ in _FALLBACK_MEMBERS],
            [offset for _, offset in _FALLBACK_MEMBERS], cfg.lambda_tol)


def _assert_pure_and_lone_rows(args):
    """The compiled walk's rows, each checked against the pure walk's
    and against its member's row when walked alone."""
    beta, h, stops, seeds, offsets, tol = args
    rows = _walk_rows(_kernels_c, *args)
    assert rows == _walk_rows(_kernels_py, *args)
    for m, seed in enumerate(seeds):
        assert rows[m] == _walk_rows(_kernels_c, beta, h, stops, [seed],
                                     [offsets[m]], tol)[0]
    return rows


@needs_compiled
def test_a_block_that_blew_up_walks_again_and_keeps_every_bit():
    # a block tests each lane for a blow-up once, at its end, and a lane
    # that left the limit steps again alone with a test per node: the
    # rows must be the pure walk's, and each must be the member's row
    # when walked alone, so that a member that goes on never sees its
    # block's blow-up and a blow-up is found when it is the only one in
    # its block
    args = _fallback_walk_args()
    beta, h, stops, seeds, offsets, tol = args
    assert len(seeds) == LANES + 13
    rows = _assert_pure_and_lone_rows(args)
    bad = {m: row[3] for m, row in enumerate(rows)
           if row[0] == _kernels_py.BLOWUP}
    assert sorted(bad) == [28, 29, 30, 31, 42, 43, 44]
    assert {row[0] for row in rows} == {_kernels_py.ACCEPTED, _kernels_py.BLOWUP}
    state = {m: _state_at(beta, h, seeds[m], bad[m]) for m in bad}
    for m in (28, 30, 31, 42, 44):
        assert all(map(math.isfinite, state[m]))
        assert max(map(abs, state[m])) > _kernels_py.BLOWUP_LIMIT
    assert bad[29] == bad[31] == bad[43] == 1
    assert all(map(math.isnan, state[29])) and math.isinf(state[43].fpp)
    # between stops: the first interval, the second and the third
    assert 1 < bad[28] < stops[0] and 1 < bad[42] < stops[0]
    assert stops[0] < bad[30] < stops[1] < bad[44] < stops[2]
    assert abs(_state_at(beta, h, seeds[31], stops[0]).f) <= _kernels_py.BLOWUP_LIMIT


# 45 members that all blow up on the default schedule, each at its own
# node but for the two at node 1: 32 on the first interval, between
# node 1 and node 395, from (0, 0, -c) for c in [1, 6], all NaN from
# (1e100, 0, 1e300) and an infinity from (0, 0, 1e150); and 13 whose
# large offset keeps fp + offset positive, from (0, 0, -c) for c in
# [0.1, 0.9], between nodes 409 and 850 on the second to the fourth
# interval, the last of which holds only the member that blows up there
_EARLY_BLOWUPS = [((0.0, 0.0, -c), 0.0) for c in np.linspace(1.0, 6.0, 30).tolist()]
_EARLY_BLOWUPS[0:0] = [((1e100, 0.0, 1e300), 0.0)]
_EARLY_BLOWUPS[16:16] = [((0.0, 0.0, 1e150), 0.0)]
_LATE_BLOWUPS = [((0.0, 0.0, -c), 1000.0) for c in np.linspace(0.1, 0.9, 13).tolist()]


@needs_compiled
@pytest.mark.parametrize("members", [_EARLY_BLOWUPS + _LATE_BLOWUPS,
                                     _LATE_BLOWUPS + _EARLY_BLOWUPS],
                         ids=["early-first", "late-first"])
def test_a_block_in_which_every_member_blows_up_keeps_every_bit(members):
    # early first, the first interval's full block of LANES members all
    # blow up; late first, its partial block of 13 does. Either way each
    # lane steps again alone to find its node, and every row must be the
    # pure walk's and the member's row when walked alone
    cfg = solvers.DEFAULT_CONFIG
    seeds = [seed for seed, _ in members]
    assert len(seeds) == LANES + 13
    rows = _assert_pure_and_lone_rows((0.5, cfg.step, cfg.stops, seeds,
                                       [offset for _, offset in members],
                                       cfg.lambda_tol))
    assert {row[0] for row in rows} == {_kernels_py.BLOWUP}
    bad = sorted(row[3] for row in rows)
    assert bad[:2] == [1, 1] and len(set(bad)) == len(bad) - 1
    assert rows[seeds.index((1e100, 0.0, 1e300))][3] == 1
    # how many blow up on each interval
    stops = (0,) + cfg.stops
    assert [sum(a < b <= c for b in bad) for a, c in zip(stops, stops[1:5])] == [
        32, 10, 2, 1]


def _pad_members():
    """2 LANES + 1 members on a short schedule: moving-wall seeds, with a
    blow-up (from (0, 0, -3)) at every seventh and a breakdown (the
    moving wall at b* = 1.2, sign -1) at every eleventh."""
    members = []
    for m in range(2 * LANES + 1):
        if m % 7 == 6:
            members.append(((0.0, 0.0, -3.0), 0.0))
        elif m % 11 == 5:
            members.append(((0.0, 1.2, -1.0), 1.2))
        else:
            b = -1.5 + 3.4 * (0.37 * m % 1.0)
            members.append(((0.0, b, 1.0), b))
    return members


def _pad_walk_args(count):
    members = _pad_members()[:count]
    return (0.5, 0.05, [80, 120, 160], [seed for seed, _ in members],
            [offset for _, offset in members], 1e-4)


@needs_compiled
def test_every_member_count_walks_the_pure_bits():
    # 1 to 2 LANES + 1 members: every count of a block's pad lanes on
    # every clone, with and without a blow-up in the block. Row m must be
    # the pure walk's and member m's row when walked alone, whatever the
    # count of members beside it
    pure = _walk_rows(_kernels_py, *_pad_walk_args(2 * LANES + 1))
    assert {row[0] for row in pure} == {
        _kernels_py.ACCEPTED, _kernels_py.BLOWUP, _kernels_py.BREAKDOWN}
    alone = []
    for m in range(2 * LANES + 1):
        beta, h, stops, seeds, offsets, tol = _pad_walk_args(m + 1)
        alone += _walk_rows(_kernels_c, beta, h, stops, seeds[m:], offsets[m:], tol)
    assert alone == pure
    for count in range(1, 2 * LANES + 2):
        assert _walk_rows(_kernels_c, *_pad_walk_args(count)) == pure[:count]


# a seed of every variant, reaching every outcome on the default schedule:
# agreement, a blow-up before the first stop (classic and slip with sign
# -1), a breakdown at the first stop (the moving wall at b* = 1.2 on the
# minus branch) and no agreement (b* = 1.682 on that branch)
_VARIANT_SPECS = [
    solvers.ProblemSpec(variant, star, sign) for variant, star, sign in (
        ("classic", None, 1.0), ("classic", None, -1.0),
        ("moving-wall", -5.0, 1.0), ("moving-wall", -1.0, 1.0),
        ("moving-wall", 0.5, 1.0), ("moving-wall", 1.2, -1.0),
        ("moving-wall", 1.682, -1.0), ("moving-wall", 3.0, -1.0),
        ("slip", 1.0, 1.0), ("slip", 0.5, -1.0),
        ("gasification", 0.5, 1.0), ("gasification", 1.5, 1.0))]

_BOTH_WALKS = [pytest.param(_kernels_py, id="pure"),
               pytest.param(_kernels_c, id="compiled", marks=needs_compiled)]


def _offset(spec):
    """What the walk adds to fp before Topfer's square root: b* for the moving wall."""
    return spec.star_param if spec.variant == "moving-wall" else 0.0


def _scaling_lambda(spec, fp):
    if spec.variant == "moving-wall":
        return scaling.lambda_moving_wall(fp, spec.star_param)
    return scaling.lambda_from_asymptote(fp)


@pytest.mark.parametrize("module", _BOTH_WALKS)
def test_walk_lambdas_are_the_scaling_lambdas_bit_for_bit(module):
    cfg = solvers.DEFAULT_CONFIG
    outcomes = set()
    for beta in {solvers.VARIANTS[spec.variant].beta for spec in _VARIANT_SPECS}:
        specs = [spec for spec in _VARIANT_SPECS
                 if solvers.VARIANTS[spec.variant].beta == beta]
        seeds = [solvers.initial_state(spec) for spec in specs]
        rows = module.walk_blasius_family(
            beta, cfg.step, cfg.stops, seeds, [_offset(s) for s in specs],
            cfg.lambda_tol)
        for spec, seed, (outcome, lambdas, fp_stop, *_) in zip(specs, seeds, rows):
            outcomes.add(outcome)
            walked = len(lambdas) + (outcome == _kernels_py.BREAKDOWN)
            if walked == 0:
                assert outcome == _kernels_py.BLOWUP and fp_stop is None
                continue
            # fp at every stop walked, from one fill of the same kernel
            _, _, fp, _ = _run_fill(module, beta, seed, cfg.step,
                                    cfg.stops[walked - 1])
            at_stops = [float(fp[stop]) for stop in cfg.stops[:walked]]
            assert fp_stop.hex() == at_stops[-1].hex()
            assert [lam.hex() for lam in lambdas] == [
                _scaling_lambda(spec, x).hex() for x in at_stops[:len(lambdas)]]
            if outcome == _kernels_py.BREAKDOWN:
                with pytest.raises(ScalingBreakdownError):
                    _scaling_lambda(spec, fp_stop)
    assert outcomes == {_kernels_py.ACCEPTED, _kernels_py.BLOWUP,
                        _kernels_py.BREAKDOWN, _kernels_py.NO_AGREEMENT}


def test_a_batched_breakdown_keeps_the_single_solves_message():
    # the batched row calls scaling only for its error, on the walk's fp
    spec = solvers.ProblemSpec("moving-wall", 1.2, -1.0)
    with pytest.raises(ScalingBreakdownError) as single:
        solvers.solve_auxiliary(spec)
    (row,) = solvers.sweep("moving-wall", [1.2], -1.0)
    assert type(row) is ScalingBreakdownError
    assert str(row) == str(single.value)
    assert str(row).startswith("fp_inf_star + b_star = ")


_GOOD_WALK = {"beta": 0.5, "h": 0.1, "stops": [40, 60], "seeds": [(0.0, 0.0, 1.0)],
              "offsets": [0.0], "lambda_tol": 1e-6}


@needs_compiled
@pytest.mark.parametrize("name, value", [
    ("seeds", [(0.0, 0.0)]),
    ("seeds", [(0.0, 0.0, 1.0, 2.0)]),
    ("seeds", [(0.0, math.nan, 1.0)]),
    ("seeds", [(0.0, 0.0, math.inf)]),
    ("seeds", [("a", 0.0, 1.0)]),
    ("seeds", [1.0]),
    ("seeds", 5),
    ("offsets", []),
    ("offsets", [0.0, 0.0]),
    ("offsets", ["a"]),
    ("stops", []),
    ("stops", [-1, 60]),
    ("stops", [0]),
    ("stops", [40, 40]),
    ("stops", [60, 40]),
    ("stops", [40, 2.5]),
    ("stops", [sys.maxsize]),
    ("h", 0.0),
    ("h", -0.1),
    ("h", math.nan),
    ("h", math.inf),
    ("lambda_tol", 0.0),
    ("lambda_tol", -1e-6),
    ("lambda_tol", math.nan),
    ("lambda_tol", math.inf),
])
def test_compiled_walk_rejects_bad_arguments_by_name(name, value):
    args = dict(_GOOD_WALK, **{name: value})
    with pytest.raises((ValueError, TypeError, IndexError), match=rf"^{name}\b"):
        _kernels_c.walk_blasius_family(*args.values())


def test_setup_py_compiles_with_the_loader_flags():
    # setup.py's extension and the loader's cache build must agree on
    # -ffp-contract=off, which bit identity with the pure kernel rests on
    tree = ast.parse((Path(__file__).resolve().parents[1] / "setup.py").read_text())
    args = [kw.value for node in ast.walk(tree) if isinstance(node, ast.Call)
            for kw in node.keywords if kw.arg == "extra_compile_args"]
    assert len(args) == 1
    assert tuple(ast.literal_eval(args[0])) == kernels.CFLAGS


def _package_copy(tmp_path):
    copy = tmp_path / "nitm"
    shutil.copytree(Path(nitm.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return copy


def _run_python(root, code, **env):
    """The output lines of code, run by a fresh process that imports the
    nitm under root, with NITM_PURE cleared."""
    path = [str(root)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env)
    env.pop("NITM_PURE", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, cwd=root, check=True)
    return out.stdout.splitlines()


def _import_backend(root, **env):
    """BACKEND, BACKEND_REASON and the cold-path modules it loaded, from
    a fresh process that imports the nitm under root."""
    return _run_python(root, "import sys, nitm.kernels as k; print(k.BACKEND); "
                       "print(k.BACKEND_REASON); "
                       "print(sorted({'subprocess', 'sysconfig'} & set(sys.modules)))",
                       **env)


@needs_compiler
def test_loader_builds_once_into_the_cache(tmp_path):
    package = _package_copy(tmp_path)
    backend, reason, _ = _import_backend(tmp_path)
    assert backend == "compiled", reason
    built = list((package / "__pycache__").glob("_kernels.*"))
    assert len(built) == 1
    assert built[0].name.endswith(importlib.machinery.EXTENSION_SUFFIXES[0])
    assert reason == f"_kernels.c built into the cache {built[0]}"
    mtime = built[0].stat().st_mtime_ns

    # a second process loads that file without compiling
    assert _import_backend(tmp_path) == [backend, reason, "[]"]
    assert list((package / "__pycache__").glob("_kernels.*")) == built
    assert built[0].stat().st_mtime_ns == mtime


@needs_compiler
def test_a_build_removes_the_stale_builds_of_its_abi(tmp_path):
    package = _package_copy(tmp_path)
    cache = package / "__pycache__"
    cache.mkdir()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    stale = cache / f"_kernels.00000000{suffix}"
    other_abi = cache / "_kernels.00000000.cpython-30-other.so"
    stale.write_bytes(b"an earlier source's build")
    other_abi.write_bytes(b"another interpreter's build")
    backend, reason, _ = _import_backend(tmp_path)
    assert backend == "compiled", reason
    built = reason.removeprefix("_kernels.c built into the cache ")
    assert sorted(cache.glob("_kernels.*")) == sorted([Path(built), other_abi])


@needs_compiler
def test_a_stale_build_that_cannot_go_does_not_fail_the_import(tmp_path):
    package = _package_copy(tmp_path)
    (package / "__pycache__").mkdir()
    stale = package / "__pycache__" / (
        "_kernels.00000000" + importlib.machinery.EXTENSION_SUFFIXES[0])
    stale.write_bytes(b"an earlier source's build")
    out = _run_python(tmp_path, (
        "import os\n"
        "def refuse(path): raise PermissionError(13, 'Permission denied', path)\n"
        "os.remove = refuse\n"
        "import nitm.kernels as k; print(k.BACKEND); print(k.WALK_CLONE)"))
    assert out[0] == "compiled"
    assert out[1] in ("avx512f", "avx2", "default", "single")
    assert stale.exists()


def _assert_copy_walks_the_pure_bits(root):
    """The walks of the nitm under root give the pure twin's rows: the
    variant seeds, the blow-up layout and every member count."""
    cfg = solvers.DEFAULT_CONFIG
    specs = [spec for spec in _VARIANT_SPECS if spec.variant != "gasification"]
    walks = [(0.5, cfg.step, cfg.stops, [tuple(solvers.initial_state(s)) for s in specs],
              [_offset(s) for s in specs], cfg.lambda_tol), _fallback_walk_args(),
             *(_pad_walk_args(count) for count in range(1, 2 * LANES + 2))]
    # floats print by repr, which round-trips every bit
    rows = ast.literal_eval(_run_python(root, (
        f"import nitm.kernels as k; print(repr([k.walk_blasius_family(*args) "
        f"for args in {walks!r}]))"))[-1])
    pure = _walk_rows(_kernels_py, *_pad_walk_args(2 * LANES + 1))
    expected = [_walk_rows(_kernels_py, *walks[0]), _walk_rows(_kernels_py, *walks[1]),
                *(pure[:count] for count in range(1, 2 * LANES + 2))]
    assert [_hex_rows(r) for r in rows] == expected


@needs_compiler
@needs_compiled
@pytest.mark.parametrize("flag", [None, "-mavx2", "-mavx512f"])
def test_kernel_without_target_clones_is_compiled_and_walks_the_same_bits(tmp_path, flag):
    # as a compiler or platform without target_clones builds it: one plain
    # walk_lanes, never the pure fallback. Built with -mavx2 or -mavx512f,
    # it runs the code of the clone this CPU does not pick, where the CPU
    # has the instructions: the clone that runs says which it has
    if flag is not None and _kernels_c.WALK_CLONE not in {
            "-mavx2": ("avx512f", "avx2"), "-mavx512f": ("avx512f",)}[flag]:
        pytest.skip(f"the {_kernels_c.WALK_CLONE} walk clone runs here, "
                    f"so the CPU may lack {flag}")
    package = _package_copy(tmp_path)
    source = (package / "_kernels.c").read_text()
    assert source.count("__has_attribute(target_clones)") == 1
    (package / "_kernels.c").write_text(
        source.replace("__has_attribute(target_clones)", "0"))
    if flag is not None:
        loader, count = re.subn(r"(?m)^CFLAGS = .*$",
                                lambda line: f"{line[0]}\nCFLAGS += ({flag!r},)",
                                (package / "kernels.py").read_text())
        assert count == 1
        (package / "kernels.py").write_text(loader)
    backend, reason, _ = _import_backend(tmp_path)
    assert backend == "compiled", reason
    assert _run_python(tmp_path, "import nitm.kernels as k; print(k.WALK_CLONE); "
                       "print(k.CFLAGS[-1])") == ["single", flag or "-ffp-contract=off"]
    _assert_copy_walks_the_pure_bits(tmp_path)


@needs_compiler
@needs_compiled
def test_a_clone_list_without_avx512f_runs_and_names_its_avx2_clone(tmp_path):
    # the clones, the name WALK_CLONE reports and the width a block is
    # padded to all come from the one list WALK_TARGETS: without its
    # avx512f entry, an AVX-512 CPU runs the avx2 clone and says so
    if _kernels_c.WALK_CLONE not in ("avx512f", "avx2"):
        pytest.skip(f"the {_kernels_c.WALK_CLONE} walk clone runs here, "
                    "so the CPU may lack AVX2")
    package = _package_copy(tmp_path)
    source, count = re.subn(r'(?m)^(#define WALK_TARGETS\(X\)) X\("avx512f", 8\)',
                            r"\1", (package / "_kernels.c").read_text())
    assert count == 1
    (package / "_kernels.c").write_text(source)
    backend, reason, _ = _import_backend(tmp_path)
    assert backend == "compiled", reason
    assert _run_python(tmp_path, "import nitm.kernels as k; print(k.WALK_CLONE)") == ["avx2"]
    _assert_copy_walks_the_pure_bits(tmp_path)


def _break_source(package, tmp_path):
    (package / "_kernels.c").write_text("this is not C\n")
    return {}


def _hide_compiler(package, tmp_path):
    (tmp_path / "empty").mkdir()
    return {"PATH": str(tmp_path / "empty")}


def _block_cache(package, tmp_path):
    (package / "__pycache__").write_text("a file, not a directory\n")
    return {}


@pytest.mark.parametrize("breakage, named", [
    pytest.param(_break_source, "error:", marks=needs_compiler),
    (_hide_compiler, "No such file or directory"),
    (_block_cache, "__pycache__"),
], ids=["broken-source", "no-compiler", "unwritable-cache"])
def test_loader_failure_falls_back_to_pure(tmp_path, breakage, named):
    if breakage is _hide_compiler and os.path.isabs(COMPILER):
        pytest.skip("the compiler is named by an absolute path")
    package = _package_copy(tmp_path)
    env = breakage(package, tmp_path)
    backend, reason, _ = _import_backend(tmp_path, **env)
    assert backend == "pure"
    assert reason.startswith("compiled kernel unavailable: ")
    assert named in reason
    if (package / "__pycache__").is_dir():
        assert not list((package / "__pycache__").glob("_kernels.*"))


def test_walk_clone_is_named_by_the_backend():
    if kernels.BACKEND == "pure":
        assert kernels.WALK_CLONE is None
    else:
        assert kernels.WALK_CLONE in ("avx512f", "avx2", "default", "single")
    if _kernels_c is not None:
        assert _kernels_c.WALK_CLONE in ("avx512f", "avx2", "default", "single")


def test_env_override_forces_pure_backend():
    env = dict(os.environ, NITM_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "import nitm; k = nitm.kernels; "
         "print(k.BACKEND); print(k.BACKEND_REASON)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert out.stdout.splitlines() == ["pure", "NITM_PURE is set"]


def test_solver_results_identical_across_backends():
    # End to end: the accepted classic solve must not depend on which
    # backend ran the fill.
    code = ("import nitm; r = nitm.solve_auxiliary(nitm.classic_problem()); "
            "print(repr(r.fpp0), repr(r.lam))")
    outputs = []
    for pure in ("0", "1"):
        env = dict(os.environ, NITM_PURE=pure)
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, env=env, check=True)
        outputs.append(out.stdout.strip())
    assert outputs[0] == outputs[1]
