"""Every function that the benchmark tracer wraps still exists.

`perfbench/trace.py` reads each name of its WRAP list with getattr, so a
renamed or deleted library function would only fail a traced benchmark
run.  The tracer imports nothing from perfbench, so it is loaded here by
path, installed and uninstalled.
"""

import importlib
import importlib.util
import pathlib

from linserlab import _linalg

TRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return trace


def test_tracer_wraps_every_name_and_puts_it_back():
    trace = _load_trace()
    modules = {short: importlib.import_module(f"linserlab.{short}")
               for short in trace.WRAP}
    before = {(short, n): getattr(modules[short], n)
              for short, names in trace.WRAP.items() for n in names}
    tracer = trace.Tracer()
    tracer.install()
    try:
        for (short, n), fn in before.items():
            assert getattr(modules[short], n).__wrapped__ is fn, (short, n)
        assert _linalg.rank_exact([[1, 2], [2, 4]]) == 1
        assert "_linalg.rank_exact" in [s[trace.NAME] for s in tracer.spans]
    finally:
        tracer.uninstall()
    for (short, n), fn in before.items():
        assert getattr(modules[short], n) is fn, (short, n)
