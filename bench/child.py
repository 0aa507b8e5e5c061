"""Fresh-interpreter probe for set-up time and peak memory.

    python3 bench/child.py parse ARGVS_JSON   import, then parse each argv
    python3 bench/child.py setup ARGVS_JSON   import, then run each argv
                                              (zero items; stdin empty)
    python3 bench/child.py run ARGV_JSON      import, then run one command
                                              on the inherited stdin/stdout

The parent times the process from spawn to exit and reads its own
resource usage with ``os.wait4``.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from specmatch import cli  # noqa: E402


def main() -> int:
    mode, payload = sys.argv[1], json.loads(sys.argv[2])
    if mode == "parse":
        for argv in payload:
            cli.build_parser().parse_args(argv)
        return 0
    if mode == "setup":
        for argv in payload:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code != 0:
                return code
        return 0
    if mode == "run":
        return cli.main(payload)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main())
