"""One benchmark unit: one `lifisim` CLI invocation in a fresh interpreter.

    python3 perfbench/unit.py '<json spec>'

The spec holds `src` (the directory holding the `lifisim` package to
import), `argv` (the CLI arguments), `trace` (wrap the layer functions
of `tracer.TRACED`) and `setup_only` (stop at the first realization, so
that only the set-up is timed). The unit prints one JSON line with its
timings:

* `wall_s`: from the first line of this script to the end of the CLI call
  (to the first realization, when `setup_only`);
* `import_s`: importing `lifisim`;
* `setup_s`: from the first line of this script to the first
  `ChannelBuilder.realize` call in this process (with `--workers N > 1`
  the realizations run in the pool, and `setup_s` is `import_s`);
* `rss_mb`: the peak resident memory of this process and its workers;
* `realizations`: `ChannelBuilder.realize` calls in this process;
* `trace`: the tracer's records, when tracing.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


class SetupDone(BaseException):
    """Ends a set-up-only unit at its first realization.

    A BaseException, so that no `except Exception` of the program stops it.
    """


def _call_hook(cls, name, state, stop):
    """Count calls of cls.name and note the first; with `stop`, end there."""
    inner = getattr(cls, name)

    def hooked(*args, **kwargs):
        if state["first"] is None:
            state["first"] = time.perf_counter()
        state["calls"] += 1
        if stop:
            raise SetupDone
        return inner(*args, **kwargs)

    setattr(cls, name, hooked)


def main():
    spec = json.loads(sys.argv[1])
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    t = time.perf_counter()
    import lifisim.cli
    import lifisim.harness
    import_s = time.perf_counter() - t
    if not os.path.abspath(lifisim.__file__).startswith(src + os.sep):
        print(f"lifisim imported from {lifisim.__file__}, not {src}",
              file=sys.stderr)
        return 1

    state = {"first": None, "calls": 0}
    _call_hook(lifisim.harness.ChannelBuilder, "realize", state,
               spec["setup_only"])
    tr = None
    if spec["trace"]:
        import tracer
        tr = tracer.Tracer()
        tr.install()

    try:
        with contextlib.redirect_stdout(sys.stderr):
            code = lifisim.cli.main(spec["argv"])
        end = time.perf_counter()
    except SetupDone:
        code, end = 0, state["first"]
    if code != 0:
        print(f"lifisim exited with {code}", file=sys.stderr)
        return 1

    first = state["first"] if state["first"] is not None else T0 + import_s
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {"wall_s": end - T0, "import_s": import_s, "setup_s": first - T0,
           "rss_mb": rss_kb / 1024.0, "realizations": state["calls"]}
    if tr is not None:
        out["trace"] = tr.report(import_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
