"""The closed-loop driver and the oracle check shared by both runs."""

from __future__ import annotations

import concurrent.futures
import dataclasses
import gc
import threading
import time
from typing import Iterator

import numpy as np

from repro.errors import ReproError
from workloads import Outcome, Request, Workload


@dataclasses.dataclass
class Sample:
    """One closed-loop request as the client saw it."""

    request: Request
    start: float
    end: float
    thread: int
    outcome: Outcome | None
    error: str | None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


@dataclasses.dataclass
class Clients:
    """Every client's request stream and the samples it has so far; a
    run may drive them through several :func:`closed_loop` calls."""

    requests: list[Iterator[Request]]
    samples: list[list[Sample]]

    @classmethod
    def start(cls, workload: Workload) -> "Clients":
        return cls(
            [workload.requests(index) for index in range(workload.clients)],
            [[] for _ in range(workload.clients)],
        )


def closed_loop(
    workload: Workload,
    state,
    clients: Clients,
    deadline: float,
    quota: int | None,
    trace: bool = False,
) -> float:
    """Run every client, each sending its next request only after the
    previous one returned, and return the wall time of the loop.

    With a ``quota`` a client stops once it holds that many samples;
    without one, once ``deadline`` (a ``perf_counter`` time) has passed,
    on a round boundary and after at least ``modeled_prefix`` requests.
    """
    started = time.perf_counter()

    def client(index: int) -> None:
        samples = clients.samples[index]
        while True:
            done = len(samples)
            if quota is not None:
                if done >= quota:
                    break
            elif (
                done >= workload.modeled_prefix
                and done % workload.round_size == 0
                and time.perf_counter() >= deadline
            ):
                break
            # Drawn only now, so a later call continues with it.
            request = next(clients.requests[index])
            start = time.perf_counter()
            outcome = error = None
            try:
                outcome = workload.issue(state, request, trace)
            except ReproError as exc:  # a typed failure: the op failed
                error = f"{type(exc).__name__}: {exc}"
            end = time.perf_counter()
            samples.append(Sample(
                request, start, end, threading.get_ident(), outcome, error
            ))

    if workload.clients == 1:
        client(0)
    else:
        with concurrent.futures.ThreadPoolExecutor(
            max_workers=workload.clients
        ) as pool:
            for future in [
                pool.submit(client, index)
                for index in range(workload.clients)
            ]:
                future.result()
    return time.perf_counter() - started


def check(workload: Workload, clients: list[list[Sample]]) -> list[str]:
    """Compare every answer with the numpy oracle; one line per failed
    op (it raised, or its answer is wrong)."""
    failures: list[str] = []
    for samples in clients:
        expected = workload.expected([s.request for s in samples])
        for sample, want in zip(samples, expected):
            request = sample.request
            label = (
                f"{workload.name} client {request.client} op "
                f"{request.index} ({request.sql or request.template})"
            )
            if sample.error is not None:
                failures.append(f"{label}: raised {sample.error}")
            elif sample.outcome.answer != want:
                failures.append(
                    f"{label}: expected {_abbrev(want)}, "
                    f"got {_abbrev(sample.outcome.answer)}"
                )
    return failures


def _abbrev(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:200] + "..."


def timed_build(workload: Workload) -> tuple[object, float]:
    """Set the program up once; return it with the set-up time in
    seconds (garbage from earlier set-ups is collected first)."""
    gc.collect()
    started = time.perf_counter()
    state = workload.build()
    return state, time.perf_counter() - started


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))
