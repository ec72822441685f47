"""Build script: compiles the optional split-search extension.

The package is fully functional without the extension; a numpy fallback
is selected at import time (see nextday.learn.kernels). Any compiler or
Cython failure therefore downgrades to a warning instead of aborting
the install.

With Cython installed the extension is generated from the `.pyx` source;
without it, the shipped C++ that Cython generated from that source is
compiled as is.
"""

import sys
from pathlib import Path

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext

PYX = "src/nextday/learn/_gini_fast.pyx"
CPP = "src/nextday/learn/_gini_fast.cpp"


def _extension(source: str) -> Extension:
    return Extension(
        "nextday.learn._gini_fast",
        sources=[source],
        language="c++",
        extra_compile_args=["-O2"],
    )


def _extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        # source paths are relative to the project root, where setup.py runs
        return [_extension(CPP)] if Path(CPP).is_file() else []
    return cythonize([_extension(PYX)], language_level="3")


class optional_build_ext(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: skipping compiled kernels ({exc})", file=sys.stderr)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: could not build {ext.name} ({exc})", file=sys.stderr)


setup(
    ext_modules=_extensions(),
    cmdclass={"build_ext": optional_build_ext},
)
