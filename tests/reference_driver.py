"""The scalar reference driver: the oracle the batched driver is pinned to.

:class:`~repro.core.driver.VirtualClockDriver` serves a segment in
interrupt-bounded slices through ``execute_batch``, the FIFO kernel and
block appends. :class:`ScalarReferenceDriver` serves the same segment the
plain way — one ``sut.execute`` per query, every due tick or point fault
fired before the arrival it precedes, a heap of per-server free times —
and inherits everything else (setup, training, workload generation,
interrupt streams, fault handling). A test that runs both and compares
the columns byte for byte therefore checks exactly the batched segment
path against this loop.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.core.driver import MIN_SERVICE_TIME, VirtualClockDriver


class ScalarReferenceDriver(VirtualClockDriver):
    """One query at a time through the server heap; one block per segment."""

    def _run_segment(
        self,
        sut,
        scenario,
        batch,
        seg_start,
        seg_end,
        segment_code,
        server_free,
        recorder,
        op_map,
        training_events,
    ):
        stream = self._interrupts(sut, seg_start, seg_end, scenario)
        fault_clock = self._fault_clock
        n = len(batch)
        arrivals = np.empty(n, dtype=np.float64)
        starts = np.empty(n, dtype=np.float64)
        completions = np.empty(n, dtype=np.float64)
        op_codes = np.empty(n, dtype=np.int32)
        for i in range(n):
            arrival = float(batch.arrivals[i])
            # Fire any due interrupts (ticks + point faults) before this
            # arrival.
            while stream.peek() <= arrival:
                server_free = self._fire_interrupt(
                    sut, stream, server_free, training_events
                )
            free = heapq.heappop(server_free)
            start = max(arrival, free)
            service = max(MIN_SERVICE_TIME, float(sut.execute(batch.query(i), arrival)))
            if fault_clock is not None:
                # The driver's own kernel on length-1 arrays: the same
                # IEEE-754 operations as the batched perturbation.
                perturbed = fault_clock.perturb_batch(
                    np.array([service]), np.array([arrival])
                )
                service = max(MIN_SERVICE_TIME, float(perturbed[0]))
            completion = start + service
            heapq.heappush(server_free, completion)
            arrivals[i] = arrival
            starts[i] = start
            completions[i] = completion
            op_codes[i] = recorder.intern_op(batch.op_names[batch.ops[i]])
        # Remaining interrupts to the end of the segment.
        while stream.peek() < seg_end:
            server_free = self._fire_interrupt(
                sut, stream, server_free, training_events
            )
        recorder.append_block(arrivals, starts, completions, op_codes, segment_code)
        return server_free
