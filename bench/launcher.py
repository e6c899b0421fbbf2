"""Run one survkit CLI command in a fresh interpreter, as the console script does.

    python3 bench/launcher.py [--spans FILE] <survkit arguments>

With ``--spans FILE`` the launcher times ``import survkit.cli``, wraps the
package's public functions (see ``spans.py``), runs ``survkit.cli.main``
and writes the spans to FILE as JSON when the command returns. Without it,
it only calls ``survkit.cli.main``. Exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys


def main(argv: list[str]) -> int:
    if argv[:1] != ["--spans"]:
        from survkit.cli import main as cli_main

        return cli_main(argv)
    out, argv = argv[1], argv[2:]
    import spans

    rec = spans.Recorder()
    span = rec.open("cli.import")
    import survkit.cli

    rec.close(span)
    spans.install(rec)
    span = rec.open("cli.main")
    try:
        return survkit.cli.main(argv)
    finally:
        rec.close(span)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
