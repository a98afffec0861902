"""Wall time and peak resident memory of one lifisim CLI command.

Runs the command in this interpreter, through lifisim.cli.main, with
lifisim imported from the src/ directory of the checkout this script
belongs to. Then prints five lines:

* wall_s: the wall seconds of the command itself (after the import);
* parent_peak_rss_mib: this process's peak resident set size;
* worker_peak_rss_mib: the largest peak of the waited-for child
  processes, the pool workers of a --workers N run;
* parent_minor_faults: this process's minor page faults during the
  command: pages the heap gave back to the system and faulted in again
  count here;
* worker_minor_faults: the minor page faults of all child processes
  waited for during the command, together.

The numbers come from getrusage (RUSAGE_SELF and RUSAGE_CHILDREN), so a
forked worker counts the pages it shares with the parent too. The
counts survive exec, so RUSAGE_CHILDREN also holds the children that
the process waited for before it became this interpreter (a shell's,
say): the fault counts subtract what they read before the command, but
a peak cannot be subtracted, and without a pool worker_peak_rss_mib
shows the largest of those (a few MiB). Uses the standard library and
lifisim only; exits with the command's exit code.

    python3 tools/peak_rss.py cdf-map --workers 2 \\
        --orientations-per-point 5 --out /tmp/peak
"""

import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lifisim import cli  # noqa: E402

#: ru_maxrss unit in bytes: KiB on Linux, bytes on macOS.
_RSS_UNIT = 1 if sys.platform == "darwin" else 1024


def _peak_mib(who):
    return resource.getrusage(who).ru_maxrss * _RSS_UNIT / 2 ** 20


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    whose = ((resource.RUSAGE_SELF, "parent"),
             (resource.RUSAGE_CHILDREN, "worker"))
    faults = [resource.getrusage(who).ru_minflt for who, _ in whose]
    start = time.perf_counter()
    code = cli.main(argv)
    wall = time.perf_counter() - start
    print(f"wall_s {wall:.2f}")
    print(f"parent_peak_rss_mib {_peak_mib(resource.RUSAGE_SELF):.1f}")
    print(f"worker_peak_rss_mib {_peak_mib(resource.RUSAGE_CHILDREN):.1f}")
    for (who, name), before in zip(whose, faults):
        after = resource.getrusage(who).ru_minflt
        print(f"{name}_minor_faults {after - before}")
    return code


if __name__ == "__main__":
    sys.exit(main())
