"""Legacy installer shim + optional compiled-kernel build.

All metadata lives in pyproject.toml (PEP 621).  This file exists so
that ``pip install -e .`` works in offline environments without the
``wheel`` package (setuptools' legacy develop-mode code path), and to
declare the optional ``repro.sim._ckernel`` extension -- the compiled
columnar sweep, which also replays the trace generator's random draws
and sorts external grouping's packed run records.  The extension is
marked ``optional``: a missing or failing compiler produces a
pure-python install that loses nothing but speed (every config then
runs the object kernel, the generator its python loop, and the
external sort its tuple path).

Build in place with::

    python setup.py build_ext --inplace

``-ffp-contract=off`` is load-bearing: the bit-for-bit contracts of
the C sweep with the object kernel, and of the generator replay with
the python loop, forbid fused multiply-adds.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro.sim._ckernel",
            sources=["src/repro/sim/_ckernel.c"],
            optional=True,
            extra_compile_args=["-O2", "-ffp-contract=off"],
        )
    ]
)
