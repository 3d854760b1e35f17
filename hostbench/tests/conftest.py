import os
import sys

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if HOSTBENCH not in sys.path:
    sys.path.insert(0, HOSTBENCH)

import layout  # noqa: E402

layout.use_source()
