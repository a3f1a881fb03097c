"""Golden digests on each given Python, without pytest: ``tools/check_golden.py [PYTHON ...]``.

Run from anywhere; paths are taken from this file's checkout. For each interpreter given
(default: the one running this script) one child process imports ``tests/test_golden.py``
with this checkout's ``src/`` first on the path and a stub ``pytest`` module in place of
pytest, whose ``mark.parametrize`` leaves the test as it is. The child then runs every
``test_stdout_digest`` case, one per name in ``sorted(RUNS)`` as the test's parametrization
lists them, each with a fresh temporary directory as ``tmp_path``, then
``test_breakdown_floats_digest`` and ``test_row_loop_source_digest``. It prints one
``pass`` or ``FAIL`` line per digest, naming the Python version. The script exits 1 when
any digest fails or any child exits with an error. Stdlib only, so it runs on any Python
the package supports.
"""

from __future__ import annotations

import platform
import subprocess
import sys
import tempfile
import traceback
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_digests() -> int:
    """Run the golden digests in this process; print a line each, and return 1 on a failure."""
    stub = types.ModuleType("pytest")
    stub.mark = types.SimpleNamespace(parametrize=lambda *args, **kwargs: lambda test: test)
    sys.modules["pytest"] = stub
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import test_golden

    def stdout_case(name):
        def run():
            with tempfile.TemporaryDirectory() as tmp:
                test_golden.test_stdout_digest(name, Path(tmp))
        return run

    cases = [(f"test_stdout_digest[{name}]", stdout_case(name))
             for name in sorted(test_golden.RUNS)]
    cases += [(test.__name__, test) for test in (test_golden.test_breakdown_floats_digest,
                                                 test_golden.test_row_loop_source_digest)]
    failed = 0
    for name, test in cases:
        try:
            test()
        except Exception:
            failed += 1
            print(f"FAIL  Python {platform.python_version()}  {name}", flush=True)
            traceback.print_exc(limit=-1)
        else:
            print(f"pass  Python {platform.python_version()}  {name}", flush=True)
    return 1 if failed else 0


def main(pythons: list[str]) -> int:
    status = 0
    child = f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); " \
            "import check_golden; sys.exit(check_golden.check_digests())"
    for python in pythons or [sys.executable]:
        try:
            # -B: no bytecode from other versions is left in the checkout.
            returncode = subprocess.run([python, "-B", "-c", child], cwd=ROOT).returncode
            problem = f"exit status {returncode}" if returncode else None
        except OSError as exc:
            problem = str(exc)
        if problem:
            print(f"FAIL  {python}: {problem}", flush=True)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
