"""Build script for the optional compiled water-fill kernel.

The package is fully functional without the extension: tvdp.oracle falls
back to the pure-Python twin when tvdp._kernels is missing, so a failed
compile only costs speed.
"""

import warnings

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

try:
    from Cython.Build import cythonize
except ImportError:
    cythonize = None

# -ffp-contract=off keeps the C arithmetic bit-identical to the pure-Python
# twin (no fused multiply-adds); do not add -ffast-math.
EXTENSIONS = [
    Extension(
        "tvdp._kernels",
        ["src/tvdp/_kernels.pyx"],
        extra_compile_args=["-O3", "-ffp-contract=off"],
    )
]


class OptionalBuildExt(build_ext):
    """Skip the extension instead of failing the whole install."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            warnings.warn(f"skipping compiled kernels ({exc}); using pure-Python backend")

    def build_extension(self, ext):
        import numpy

        ext.include_dirs.append(numpy.get_include())
        try:
            super().build_extension(ext)
        except Exception as exc:
            warnings.warn(f"skipping {ext.name} ({exc}); using pure-Python backend")


if cythonize is not None:
    ext_modules = cythonize(EXTENSIONS, compiler_directives={"language_level": "3"})
else:
    warnings.warn("Cython not available; building without compiled kernels")
    ext_modules = []

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
