"""Every function in ``src/`` is reached by a production path, or is kept on
purpose: on the keep list of ``test_imports.py``, with its reason.

The production paths are the CLI commands of ``test_cli.GOLDEN_COMMANDS``
and one tiny seed-0 pass of each benchmark workload, its checks included.
They run under ``sys.settrace`` in a fresh interpreter: in this one, the
``functools`` caches that earlier tests filled would hide calls.

    PYTHONPATH=src:perfbench python tests/test_reach.py < commands.json

prints the JSON pair (every function, the reached ones), each function as
``module.qualname``.
"""

import contextlib
import importlib
import inspect
import io
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("ns-lp", "quantum", "ra-exact")


def functions(code: types.CodeType, prefix: str):
    """((co_filename, co_firstlineno), prefix + qualname) for each function
    defined in ``code``, nested ones and methods included; comprehensions
    and lambdas are not functions."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:
                yield (const.co_filename, const.co_firstlineno), name
                yield from functions(const, name + ".<locals>.")
            else:  # a class body
                yield from functions(const, name + ".")


def trace(commands) -> tuple[list, list]:
    """Every function of the package, and those that the commands (run
    through ``cli.main``) and the workloads reach."""
    # only the traced process has perfbench on its path
    import monogamy_lab
    import workloads
    from monogamy_lab import cli

    defined = {}
    for info in pkgutil.iter_modules(monogamy_lab.__path__):
        path = importlib.import_module(f"monogamy_lab.{info.name}").__file__
        defined.update(functions(compile(Path(path).read_text(), path, "exec"), f"{info.name}."))
    seen = set()

    def on_call(frame, event, arg):
        code = frame.f_code
        seen.add((code.co_filename, code.co_firstlineno))

    sys.settrace(on_call)
    try:
        for argv in commands:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
        for workload in WORKLOADS:
            for op in workloads.build(workload, 0, "tiny"):
                problems = op.check(op.run())
                assert problems == [], (workload, op.label, problems)
    finally:
        sys.settrace(None)
    return sorted(defined.values()), sorted(defined[key] for key in seen if key in defined)


def test_every_function_in_src_is_reached_or_kept():
    # imported here, not at the top: the traced process runs none of the
    # test modules' top-level code
    from test_cli import GOLDEN_COMMANDS
    from test_imports import KEEP

    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, __file__], input=json.dumps(list(GOLDEN_COMMANDS.values())),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    defined, reached = json.loads(proc.stdout)
    unreached = set(defined) - set(reached)
    # reach it from the CLI or a workload, move it into the tests, or keep it with its reason
    assert sorted(unreached - KEEP.keys()) == []
    # drop a kept function once a production path reaches it, or once it is gone
    assert sorted(KEEP.keys() - unreached) == []


if __name__ == "__main__":
    print(json.dumps(trace(json.load(sys.stdin))))
