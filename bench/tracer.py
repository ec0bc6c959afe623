"""Spans around calls into ecmtt's public functions, recorded from outside.

The tracer hooks functions by their code objects through `sys.setprofile`,
so it adds no Python frame to the recursive functions it watches (`step`,
`is_value`, the walk inside `free_vars`).  A wrapper would add one frame per
level and make the seed's depth limits fail programs that pass untraced; it
would also miss `free_vars`, which `subst` imports by name.

Each hooked function is either a span function, which records one span per
outermost call (name, start, end, parent span, program id), or an aggregate
function, which is too hot for spans and only adds to per-program call
counts and times.  Nested calls of a function directly inside itself fold
into the outer call, so recursion is timed once.  Self time is a call's
duration minus the time its hooked children cover.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    name: str  # "<module>.<function>"
    code: object
    aggregate: bool = False
    keep_returns: bool = False


class Tracer:
    def __init__(self, hooks: list[Hook]):
        self.hooks = hooks
        self.index = {h.code: i for i, h in enumerate(hooks)}
        n = len(hooks)
        self.calls = [0] * n
        self.total = [0.0] * n
        self.self_time = [0.0] * n
        self._renames = [0]
        self.returns: list[tuple[int, object]] = []
        # (span id, hook index, start, end, parent span id or -1, program id)
        self.spans: list[tuple[int, int, float, float, int, int]] = []
        self._stack: list[list] = []
        self._next_id = [0]
        self._program = [-1]
        self._fresh_name = next((i for i, h in enumerate(hooks) if h.name == "syntax.fresh_name"), -1)
        self._profile = self._make_profile()

    def _make_profile(self):
        index = self.index
        aggregate = [h.aggregate for h in self.hooks]
        keep = [h.keep_returns for h in self.hooks]
        next_id = self._next_id
        program = self._program
        stack = self._stack
        calls = self.calls
        total = self.total
        self_time = self.self_time
        spans = self.spans
        returns = self.returns
        clock = time.perf_counter
        fresh = self._fresh_name
        renames = self._renames

        def profile(frame, event, arg):
            if event == "call":
                i = index.get(frame.f_code)
                if i is None:
                    return
                calls[i] += 1
                if stack and stack[-1][0] == i:
                    stack[-1][3] += 1
                    return
                # [hook, start, child time, folded depth, nearest span id]
                if aggregate[i]:
                    stack.append([i, clock(), 0.0, 0, stack[-1][4] if stack else -1])
                else:
                    next_id[0] += 1
                    stack.append([i, clock(), 0.0, 0, next_id[0]])
            elif event == "return":
                i = index.get(frame.f_code)
                if i is None or not stack:
                    return
                top = stack[-1]
                if i == fresh and arg is not None and arg != frame.f_locals.get("base"):
                    renames[0] += 1
                if top[3]:
                    top[3] -= 1
                    return
                end = clock()
                stack.pop()
                d = end - top[1]
                total[i] += d
                self_time[i] += d - top[2]
                if stack:
                    stack[-1][2] += d
                if not aggregate[i]:
                    parent = stack[-1][4] if stack else -1
                    spans.append((top[4], i, top[1], end, parent, program[0]))
                if keep[i] and arg is not None:
                    returns.append((i, arg))

        return profile

    def run(self, program_id: int, fn, *args):
        """Call fn(*args) with profiling on, attributing spans to the program."""
        self._program[0] = program_id
        self._stack.clear()
        sys.setprofile(self._profile)
        try:
            return fn(*args)
        finally:
            sys.setprofile(None)
            # A RecursionError inside the profile function switches profiling
            # off mid-call; whatever was still open is dropped.
            self._stack.clear()

    @property
    def renames(self) -> int:
        return self._renames[0]

    def take_returns(self) -> list[tuple[int, object]]:
        out = list(self.returns)
        self.returns.clear()
        return out

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds)."""
        return {h.name: (self.calls[i], self.total[i], self.self_time[i]) for i, h in enumerate(self.hooks)}

    def span_rows(self):
        for sid, i, start, end, parent, program in self.spans:
            yield [sid, self.hooks[i].name, start, end, parent, program]
