"""Tests for the benchmark's own code (not part of tier-1 ``testpaths``):

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
