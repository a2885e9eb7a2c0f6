"""Setuptools entry point: package metadata plus the optional native kernel.

The environment used for reproduction has no network access and no ``wheel``
package, so PEP 517 editable installs (which build a wheel) are unavailable;
``setup.py develop`` / ``build_ext --inplace`` handle installs and extension
builds instead.

The C extension is declared ``optional=True``: on a machine without a C
compiler the build degrades gracefully, the ``native`` decoder-backend
family simply reports itself unavailable and everything runs on the pure
numpy backends.  Build it in place for development with::

    python setup.py build_ext --inplace
"""

from setuptools import Extension, find_packages, setup

NATIVE_KERNEL = Extension(
    "repro.phy.turbo.backends._native._sisokernel",
    sources=["src/repro/phy/turbo/backends/_native/sisokernel.c"],
    depends=["src/repro/phy/turbo/backends/_native/sisokernel_impl.h"],
    extra_compile_args=["-O3"],
    optional=True,
)

setup(
    name="repro",
    version="0.9.0",
    description=(
        "Reproduction of an HSPA+ turbo-coded link over unreliable memory "
        "(DAC'12), with batched numpy and native decoder backends"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    ext_modules=[NATIVE_KERNEL],
)
