"""Integration kernel selection.

Uses the compiled kernel nitm._kernels when it is available, otherwise
the pure-Python twin. Each has three entries: fill_blasius_family, the
RK4 fill of one member; walk_blasius_family, the batched walk; and
series_check, the wall-series check of analysis.series_deviation. An
installed extension (built by setup.py) comes first. Without one,
_kernels.c is compiled once with the C compiler Python was built with
into this package's __pycache__, where it replaces the builds of
earlier sources, and later imports load it from there. Any failure falls back to the pure kernel and never raises:
BACKEND names the kernel in use and BACKEND_REASON says why. Setting
NITM_PURE=1 in the environment forces the fallback (used by the
benchmark and the backend-equality tests).
"""

import importlib.machinery
import importlib.util
import os
import sys
import zlib

from . import _kernels_py

# The same flags as in setup.py. -ffp-contract=off forbids fused
# multiply-add, which would break bit-identity with the pure kernel.
CFLAGS = ("-O3", "-ffp-contract=off")

_PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_PACKAGE_DIR, "_kernels.c")
_MODULE = __package__ + "._kernels"


def _cache_path(source: bytes) -> str:
    """Cache file for this source, these flags and this interpreter's ABI."""
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    digest = zlib.crc32(b"\0".join(
        (source, " ".join(CFLAGS).encode(), suffix.encode())))
    return os.path.join(_PACKAGE_DIR, "__pycache__",
                        f"_kernels.{digest:08x}{suffix}")


def _build(path: str) -> None:
    """Compile _kernels.c into path; raises ImportError or OSError."""
    import shlex
    import subprocess
    import sysconfig

    os.makedirs(os.path.dirname(path), exist_ok=True)
    # a private name, then an atomic rename: a concurrent import sees
    # either no file or a complete one
    tmp = f"{path}.{os.getpid()}.tmp"
    command = (shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")
               + shlex.split(sysconfig.get_config_var("CCSHARED") or "")
               + list(CFLAGS)
               + ["-I", sysconfig.get_paths()["include"], _SOURCE, "-o", tmp])
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            lines = proc.stdout.splitlines() or [""]
            first_error = next((line for line in lines if "error:" in line),
                               lines[-1])
            raise ImportError(f"{command[0]} exited with status "
                              f"{proc.returncode}: {first_error.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    # the builds of earlier sources for this ABI; other ABIs' builds stay
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    for name in os.listdir(os.path.dirname(path)):
        stale = os.path.join(os.path.dirname(path), name)
        if name.startswith("_kernels.") and name.endswith(suffix) and stale != path:
            try:
                os.remove(stale)
            except OSError:     # in use or read-only: it only takes space
                pass


def _load_compiled():
    """Return the compiled kernel module and why it is the one in use."""
    try:
        from . import _kernels
        return _kernels, f"installed extension {_kernels.__file__}"
    except ImportError:
        pass
    with open(_SOURCE, "rb") as src:
        path = _cache_path(src.read())
    if not os.path.exists(path):
        _build(path)
    spec = importlib.util.spec_from_file_location(_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # so that `from nitm import _kernels` finds it like an installed one
    sys.modules[_MODULE] = module
    setattr(sys.modules[__package__], "_kernels", module)
    return module, f"_kernels.c built into the cache {path}"


if os.environ.get("NITM_PURE", "") not in ("", "0"):
    BACKEND, BACKEND_REASON = "pure", "NITM_PURE is set"
    _backend = _kernels_py
else:
    try:
        _backend, BACKEND_REASON = _load_compiled()
    except (ImportError, OSError) as exc:
        BACKEND = "pure"
        BACKEND_REASON = f"compiled kernel unavailable: {exc}"
        _backend = _kernels_py
    else:
        BACKEND = "compiled"
fill_blasius_family = _backend.fill_blasius_family
walk_blasius_family = _backend.walk_blasius_family
series_check = _backend.series_check
# the build of the batched walk's block stepper that runs: "avx512f",
# "avx2" or "default" (the clone the loader picked) or "single" (built
# without clones); None for the pure backend, which has none
WALK_CLONE = getattr(_backend, "WALK_CLONE", None)
