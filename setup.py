"""Build script for the optional compiled integrator kernel.

The package works without the extension: nitm.kernels then compiles
_kernels.c on first import, or falls back to the pure-Python kernel, so
any failure here (no C compiler) downgrades the build instead of
breaking it.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """build_ext that warns instead of failing when compilation breaks."""

    def run(self):
        try:
            super().run()
        except Exception as exc:
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"WARNING: compiled kernel skipped ({exc}); "
              "falling back to the pure-Python kernel")


setup(
    ext_modules=[Extension(
        "nitm._kernels",
        ["src/nitm/_kernels.c"],
        # the flags of nitm.kernels.CFLAGS: -ffp-contract=off keeps the
        # compiled kernel bit-identical with the pure-Python one (no
        # fused multiply-add)
        extra_compile_args=["-O3", "-ffp-contract=off"],
    )],
    cmdclass={"build_ext": optional_build_ext},
)
