"""Traced CLI invocation for the operator workload.

    python bench/child.py SPANS_OUT ARGV...

Installs the span recorder, times `import minimano.cli`, runs
`cli.main(ARGV)` and writes the spans to SPANS_OUT for the parent to
merge. Exits with the CLI's exit code. PYTHONPATH must name the
package's `src` directory.
"""

import sys
from time import perf_counter_ns

from spans import Recorder


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    t0 = perf_counter_ns()
    from minimano import cli
    rec.add("cli.import", t0, perf_counter_ns())
    rec.install()
    sid = rec.open("cli.main")
    try:
        code = cli.main(argv)
    finally:
        rec.close(sid)
        rec.uninstall()
        rec.dump(spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main())
