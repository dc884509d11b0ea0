"""Build script: compiles the Garside kernel extension when possible.

The extension is one hand-written C file.  It is optional: without a C
compiler the install still succeeds, and braidfact._kernel falls back to
the pure-Python twin.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "braidfact._kernel._garside",
            sources=["src/braidfact/_kernel/_garside.c"],
            optional=True,
        )
    ]
)
