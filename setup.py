"""Setuptools shim.

All project metadata lives in ``pyproject.toml``.  Without the ``wheel``
package pip cannot build an editable install (with or without PEP 517), so
on such a host this shim keeps ``python setup.py develop`` available.
"""

from setuptools import setup

setup()
