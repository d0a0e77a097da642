"""Fingerprint what the CLI writes for one config: a sha256 per output file and per stdout.

Runs ``solve``, ``steady``, ``ode``, ``mc`` and ``compare`` on CONFIG, each
into its own directory under a temporary one, with the package from the
``src`` directory next to this script.  The temporary path is replaced by
``<out>`` in each stdout before it is hashed, so two checkouts give equal
lines exactly when their outputs are byte-identical.  Uses the standard
library only.

Usage: python tools/outputs.py CONFIG

Prints one line per stdout and per output file, ``<subcommand> <name>
<sha256>``, and one ``<subcommand> exit <code>`` line per subcommand.
Exits 1 when CONFIG does not exist, else 0.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ("solve", "steady", "ode", "mc", "compare")
_RUN = "import sys; from degreeflow.cli import main; sys.exit(main(sys.argv[1:]))"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[2], file=sys.stderr)
        return 1
    if not Path(argv[1]).is_file():
        print(f"no config file {argv[1]}", file=sys.stderr)
        return 1
    config = str(Path(argv[1]).resolve())
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    with tempfile.TemporaryDirectory() as tmp:
        for name in SUBCOMMANDS:
            out = Path(tmp) / name
            run = subprocess.run([sys.executable, "-c", _RUN, name, "--config", config, "--out", str(out)],
                                 env=env, stdout=subprocess.PIPE)
            print(f"{name} exit {run.returncode}")
            print(f"{name} stdout {_sha(run.stdout.replace(tmp.encode(), b'<out>'))}")
            for path in sorted(out.glob("*")):
                print(f"{name} {path.name} {_sha(path.read_bytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
