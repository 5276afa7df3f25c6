"""The ``serve`` workload: a real ``repro serve`` process under an
open-loop load from one client process.

The service runs in its own interpreter, so the load generator never
shares its GIL.  The client keeps two connections and sends each
request at its scheduled time whatever the service is doing; latency
is timed from that scheduled time, so a stall also charges the wait it
imposes on later requests.

The job mix is the repo's own mixed serve load,
``benchmarks/bench_serve.py:_job_mix``, one 19-job unit repeated, plus
one recipe per unit whose seed no set-up used (a compile miss, a store
write and a journal append in the timed phase).
"""

import os
import signal
import subprocess
import sys
import threading
import time

from repro.serve.client import ServeClient

#: offered load, requests per second: about an eighth of what a
#: 16-deep closed loop reaches with this mix on a 2-core host (644/s).
#: At half that capacity, queueing turned the host's speed spells into
#: a 40% spread of the median latency across seeds; here it is 3%.
RATE = 80.0

#: client connections the requests alternate over
CONNECTIONS = 2

#: recipe seeds of the fresh jobs come from here, a range no set-up warms
FRESH_SEEDS = range(1_000_000, 2_000_000)

#: seconds to wait for the service to print its address, and for the
#: next event while requests are outstanding
START_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 60.0

TERMINAL_EVENTS = ("result", "error", "rejected", "deadline", "unavailable")


def repeated_jobs():
    """The fixed jobs of one mix unit, as in ``bench_serve._job_mix``:
    four small kernels under three strategies (default backend interp),
    ``fir_32_1`` on each backend, two warm recipes, and ``mult_4_4``
    under CB_PROFILE."""
    jobs = [{"kind": "run", "workload": name, "strategy": strategy}
            for name in ("fir_32_1", "iir_1_1", "mult_4_4", "latnrm_8_1")
            for strategy in ("SINGLE_BANK", "CB", "CB_DUP")]
    jobs += [{"kind": "run", "workload": "fir_32_1", "backend": backend}
             for backend in ("interp", "fast", "jit")]
    jobs += [{"kind": "recipe", "recipe": {"seed": seed}, "strategy": "CB"}
             for seed in (3, 5)]
    jobs.append({"kind": "run", "workload": "mult_4_4",
                 "strategy": "CB_PROFILE"})
    return jobs


def writes_job(values):
    return {"kind": "run", "workload": "fir_32_1",
            "writes": {"x": list(values)}, "reads": ["y"]}


def warmup_jobs():
    """Every program the timed mix repeats, once, so each is compiled and
    its simulator code generated before the timed phase."""
    return repeated_jobs() + [writes_job([0.0] * 32)]


def timed_schedule(rng, requests):
    """``[(due offset in s, job)]``: a seeded Poisson schedule at
    :data:`RATE` over a seeded shuffle of whole mix units.

    The Poisson process is conditioned on its count: the *requests*
    arrivals fall uniformly over exactly ``requests / RATE`` seconds.
    The gaps stay exponential, but no seed offers more or less load
    than another, so the throughput of a service that keeps up is the
    same on every seed.

    A unit is :func:`repeated_jobs`, one ``writes`` job with seeded
    inputs and one fresh recipe drawn from :data:`FRESH_SEEDS`; so every
    seed gets the same shares of each job kind.  Requests beyond the
    last whole unit are a seeded sample of one more unit."""
    repeated = repeated_jobs()
    unit = len(repeated) + 2
    units = -(-requests // unit)
    fresh = rng.sample(FRESH_SEEDS, units)
    jobs = []
    for index in range(units):
        members = list(repeated)
        members.append(writes_job(float(rng.randint(-8, 8))
                                  for _ in range(32)))
        members.append({"kind": "recipe", "recipe": {"seed": fresh[index]},
                        "strategy": "CB"})
        if index == units - 1:
            members = rng.sample(members, requests - index * unit)
        jobs += members
    rng.shuffle(jobs)
    span = len(jobs) / RATE
    dues = sorted(rng.uniform(0.0, span) for _ in jobs)
    return list(zip(dues, jobs))


class Service:
    """One ``repro serve`` subprocess (``--port 0``, serial workers)."""

    def __init__(self, root, work_dir, traced_path=None):
        self.cache_dir = os.path.join(work_dir, "cache")
        self.journal = os.path.join(work_dir, "journal.jsonl")
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        serve_args = ["serve", "--port", "0", "--cache-dir", self.cache_dir,
                      "--journal", self.journal]
        if traced_path is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            command = [sys.executable,
                       os.path.join(root, "perfbench", "run.py"),
                       "--serve-traced", traced_path, "--"] + serve_args
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.host, self.port = self._address()

    def _address(self):
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            if line.startswith("serving on "):
                host, _sep, port = line.split()[-1].rpartition(":")
                return host, int(port)
        self.stop()
        raise RuntimeError("repro serve did not report its address")

    def client(self):
        return ServeClient(self.host, self.port, timeout=DRAIN_TIMEOUT_S)

    def warm_up(self, jobs):
        """Run *jobs* one at a time (so none coalesce); returns their
        terminal events."""
        with self.client() as client:
            return [client.run_jobs([dict(job, id="w%d" % index)])[0]
                    for index, job in enumerate(jobs)]

    def stats(self):
        with self.client() as client:
            return client.stats()

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.process.pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the service process")

    def stop(self):
        """SIGINT (the service's clean shutdown), then wait; kill on a
        hang.  Always reaps the process."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def run_open(service, schedule):
    """Drive *schedule* open-loop over :data:`CONNECTIONS` connections.

    Returns ``(events, latencies_s, lateness_s, wall_s)``: terminal
    events in schedule order, per-request latency from its due time,
    how late each send left, and the wall time from the first due time
    to the last terminal event.  A connection that stays silent for
    :data:`DRAIN_TIMEOUT_S` with requests outstanding is given up; its
    missing events count as failures.
    """
    clients = [service.client() for _ in range(CONNECTIONS)]
    count = len(schedule)
    received = [None] * count
    events = [None] * count

    def reader(client, expected):
        try:
            while expected:
                event = client.read_event()
                if event is None:
                    return
                if event.get("event") not in TERMINAL_EVENTS:
                    continue
                index = int(event["id"][1:])
                received[index] = time.perf_counter()
                events[index] = event
                expected -= 1
        except OSError:  # silent past the drain timeout
            return

    threads = [
        threading.Thread(target=reader, daemon=True,
                         args=(client, len(range(slot, count, CONNECTIONS))))
        for slot, client in enumerate(clients)
    ]
    for thread in threads:
        thread.start()
    lateness = []
    start = time.perf_counter() + 0.05
    try:
        for index, (due, job) in enumerate(schedule):
            delay = start + due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lateness.append(time.perf_counter() - (start + due))
            clients[index % CONNECTIONS].send(dict(job, id="t%d" % index))
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
    finished = [t for t in received if t is not None]
    wall = (max(finished) - start) if finished else 0.0
    latencies = [
        None if received[i] is None else received[i] - (start + due)
        for i, (due, _job) in enumerate(schedule)
    ]
    return events, latencies, lateness, wall
