"""Starts the benchmark's child processes and reports what each one cost.

On Linux a child's ru_maxrss includes the peak resident size of the address
space it replaced at exec, which is its parent's. The benchmark process
holds the corpora, reference containers and traced-run data, so its
children would all report its peak instead of their own. It therefore
starts them through this small stdlib-only process, one at a time.

Protocol: one JSON request per line on stdin,
{"argv": [...], "stderr": PATH, "timeout_s": T}, answered by one JSON line
on stdout with the child's wall_s, cpu_s (user + sys), peak_rss_mb and
exit_code. A child still running after T seconds is killed. The launcher
exits at the end of its input.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run_child(argv: list[str], stderr_path: str, timeout_s: float) -> dict:
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "exit_code": proc.returncode,
    }


def main() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        reply = run_child(request["argv"], request["stderr"], request["timeout_s"])
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
