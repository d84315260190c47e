"""Packaging for the Endure reproduction: `pip install -e .` installs the
`repro` package and the `repro-endure` command.

The metadata lives here, not in a pyproject.toml, so that an editable
install takes setuptools' `develop` route, which needs no `wheel` package
(the PEP 660 editable route does).
"""

import pathlib
import re

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (pathlib.Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro-endure",
    version=VERSION,
    description="Robust LSM-tree tuning under workload uncertainty (Endure reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro-endure = repro.cli:main"]},
)
