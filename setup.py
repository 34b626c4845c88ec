"""Build script for the optional compiled integrator kernel.

The package works without the extension: nitm.kernels then compiles
_kernels.c on first import, or falls back to the pure-Python kernel, so
the extension is optional and a failed build (no C compiler) only warns.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[Extension(
        "nitm._kernels",
        ["src/nitm/_kernels.c"],
        # the flags of nitm.kernels.CFLAGS: -ffp-contract=off keeps the
        # compiled kernel bit-identical with the pure-Python one (no
        # fused multiply-add)
        extra_compile_args=["-O3", "-ffp-contract=off"],
        optional=True,
    )],
)
