"""Set-up probe: a fresh interpreter imports regcolor from the checkout's
src/ and makes one small first call.  run.py times this whole process as
setup_s, so work moved into import or first-call set-up shows there.

    python3 perfbench/probe.py OUTPUT_FILE
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from regcolor import cli  # noqa: E402

if __name__ == "__main__":
    sys.exit(cli.main(["--seed", "0", "--out", sys.argv[1], "sample",
                       "--n", "10", "--d", "3"]))
