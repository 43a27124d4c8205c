import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bootstrap  # noqa: E402  (pins BLAS threads, puts the checkout's src first)

bootstrap.check_environment()
