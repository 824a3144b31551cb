# Kept for `python setup.py develop`, the offline editable install: without
# the `wheel` package, `pip install -e .` stops at `invalid command 'bdist_wheel'`.
from setuptools import setup

setup()
