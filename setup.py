"""Setup shim for offline editable installs.

The evaluation environment is offline with no ``wheel`` package, so PEP 660
editable installs are unavailable; this file lets ``pip install -e .`` fall
back to ``setup.py develop``. All metadata lives in ``setup.cfg`` (there is
deliberately no ``pyproject.toml``: offline, it would force an isolated PEP 517
build that cannot fetch setuptools).
"""

from setuptools import setup

setup()
