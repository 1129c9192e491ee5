"""A quantum-based round-robin scheduler over the machine's cores.

Just enough operating system to produce the workload shapes the paper
measures: timeshared uniprocessors with many PIDs (the gcc workload's
high hash-eviction rate), and multiprocessors running one process per
CPU (AltaVista, DSS).
"""

from collections import deque

from repro.cpu import pipeline


class Scheduler:
    """Round-robin scheduler with a fixed cycle quantum."""

    def __init__(self, machine, quantum=None):
        self.machine = machine
        self.quantum = quantum or machine.config.quantum
        self._queues = [deque() for _ in machine.cores]
        self.context_switches = 0

    def submit(self, process, cpu=None):
        """Queue *process*; round-robins across CPUs if *cpu* is None."""
        if cpu is None:
            cpu = min(range(len(self._queues)),
                      key=lambda i: len(self._queues[i]))
        self._queues[cpu].append(process)

    def pending(self):
        return sum(len(q) for q in self._queues)

    def run(self, max_instructions=None):
        """Run all queued processes to completion (or the budget).

        Cores execute one quantum each in turn so their local clocks stay
        roughly aligned.  Returns the total instructions retired.
        """
        machine = self.machine
        start_retired = machine.instructions_retired
        while True:
            progressed = False
            for cpu, queue in enumerate(self._queues):
                if not queue:
                    continue
                if (max_instructions is not None
                        and machine.instructions_retired - start_retired
                        >= max_instructions):
                    return machine.instructions_retired - start_retired
                proc = queue.popleft()
                core = machine.cores[cpu]
                if machine.ctx_sink is not None:
                    # Publish the dispatched process's request context
                    # to the profiling driver's per-CPU context
                    # register (repro.ctx); None when profiling runs
                    # without the context dimension, so the default
                    # path costs one attribute read.
                    machine.ctx_sink(cpu, proc.pid, proc.ctx)
                inst_limit = None
                if max_instructions is not None:
                    inst_limit = (max_instructions
                                  - (machine.instructions_retired
                                     - start_retired))
                before = core.time
                before_retired = core.instructions_retired
                status = core.run(proc, cycle_limit=self.quantum,
                                  inst_limit=inst_limit)
                proc.cpu_cycles += core.time - before
                proc.instructions += (core.instructions_retired
                                      - before_retired)
                progressed = True
                if status == pipeline.EXITED:
                    proc.exited = True
                elif status == pipeline.QUANTUM:
                    queue.append(proc)
                    self.context_switches += 1
                else:  # budget exhausted
                    queue.append(proc)
            if not progressed:
                break
        return machine.instructions_retired - start_retired
