"""Backend selection, the kernel loader, the compiled kernel's argument
checks and bit-identity of the two kernels' fills and batched walks."""

import importlib.machinery
import math
import os
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
from nitm import BlasiusFamilyRhs, State3, kernels
from nitm import _kernels_py
from rk4_reference import rk4_step

try:
    from nitm import _kernels as _kernels_c
except ImportError:
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

def _walk_rows(module, *args):
    """The walk's rows with each buffer as its bytes, None for a freed one."""
    return [(outcome, fps, bad,
             *(None if b is None else bytes(b) for b in buffers))
            for outcome, fps, bad, *buffers in module.walk_blasius_family(*args)]


_SEEDS = st.tuples(st.floats(-3.0, 3.0), st.floats(-6.0, 6.0),
                   st.sampled_from([1.0, -1.0]))


@needs_compiled
@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.5, 1.0]), st.sampled_from([0.01, 0.05, 0.2]),
       st.lists(st.integers(1, 60), min_size=1, max_size=5),
       st.lists(st.tuples(_SEEDS, st.floats(-3.0, 3.0)), max_size=19),
       st.sampled_from([1e-3, 1e-6, 1e-12]))
def test_compiled_and_pure_walks_are_bit_identical(beta, h, gaps, members, tol):
    # random seeds and offsets reach every outcome: agreement, blow-up,
    # breakdown and no agreement, in blocks of up to 19 members
    stops = [sum(gaps[:j + 1]) for j in range(len(gaps))]
    seeds = [seed for seed, _ in members]
    offsets = [offset for _, offset in members]
    args = (beta, h, stops, seeds, offsets, tol)
    compiled = _walk_rows(_kernels_c, *args)
    assert compiled == _walk_rows(_kernels_py, *args)
    for outcome, fps, bad, *buffers in compiled:
        assert len(fps) <= len(stops)
        assert (bad >= 0) == (outcome == _kernels_py.BLOWUP)
        if outcome == _kernels_py.ACCEPTED:
            assert [len(b) for b in buffers] == [8 * (stops[len(fps) - 1] + 1)] * 3
        else:
            assert buffers == [None] * 3


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


def _package_copy(tmp_path):
    copy = tmp_path / "nitm"
    shutil.copytree(Path(nitm.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__", "*.so"))
    return copy


def _import_backend(root, **env):
    """BACKEND, BACKEND_REASON and the cold-path modules it loaded, from
    a fresh process that imports the nitm under root."""
    code = ("import sys, nitm.kernels as k; print(k.BACKEND); "
            "print(k.BACKEND_REASON); "
            "print(sorted({'subprocess', 'sysconfig'} & set(sys.modules)))")
    path = [str(root)] + ([os.environ["PYTHONPATH"]]
                          if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), **env)
    env.pop("NITM_PURE", None)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, cwd=root, check=True)
    return out.stdout.splitlines()


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
