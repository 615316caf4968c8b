import os
import sys

# inscorr sets its one-thread BLAS default on import; importing it before
# any test module loads numpy lets sweep workers forked by the tests share
# the cores
import inscorr  # noqa: F401

sys.path.insert(0, os.path.dirname(__file__))
