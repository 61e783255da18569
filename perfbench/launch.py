"""Starts the benchmark's child processes and reports how each one ended.

The benchmark process grows while it checks large outputs, and Linux hands
the memory high-water mark of the process that spawns a program on to that
program's ru_maxrss.  This process stays small, so the peak RSS it reports
for a child is the child's own.

It reads one JSON request a line on stdin, {"argv", "stdout", "stderr",
"timeout"}, runs the command to its exit with its output in the two files,
and answers with one JSON line {"returncode", "wall_s", "rss_mb"}.  The
wall time runs from spawn to exit.  Each command runs in its own process
group, which is killed when the command overruns its timeout or this
process is terminated.  wait4 gives the usage of the child
together with that of the children it reaped, so the peak RSS covers pool
workers too.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

running = {}


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run(request):
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        running["pid"] = proc.pid
        timer = threading.Timer(request["timeout"], kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            running.pop("pid")
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0}


def stop(signum, frame):
    if "pid" in running:
        kill_group(running["pid"])
        os.waitpid(running["pid"], 0)
    sys.exit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
