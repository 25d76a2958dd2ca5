"""Small launcher that starts each measured command and reports its cost.

Linux carries a process's peak RSS across exec, and a child started by
fork or vfork inherits its parent's peak as a floor. The benchmark's own
process grows while it generates and checks inputs, so its children would
report that size instead of their own. This launcher imports nothing heavy
and stays small, so the peak RSS that wait4 reports for the commands it
starts is theirs.

Protocol, one JSON object per line: the benchmark writes
{"argv", "stdout", "stderr", "cwd", "env", "timeout"} to stdin; the
launcher runs the command to the end, killing it after timeout seconds,
and answers {"wall": seconds, "maxrss_kb": n, "code": exit code}. It exits
when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"] or os.devnull, "wb") as out, open(req["stderr"], "wb") as err:
            started = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err,
                                    cwd=req["cwd"], env=req["env"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - started
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        sys.stdout.write(json.dumps({"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": code}) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
