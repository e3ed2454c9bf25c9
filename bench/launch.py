"""Spawns the commands of bench/run.py and reports each one's wall time, exit
code and peak RSS.

It runs as a separate small process because a child's ru_maxrss starts from
the peak RSS of the process that forked it: spawned from the benchmark itself,
which holds the reference answers, a command would report the benchmark's
memory instead of its own.

Protocol: one JSON request per stdin line, {"argv", "stdout", "stderr", "cwd",
"timeout"}; one JSON reply per stdout line, {"seconds", "rc", "maxrss_kib"}.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "w") as out, open(req["stderr"], "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"])
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"seconds": seconds, "rc": proc.returncode, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
