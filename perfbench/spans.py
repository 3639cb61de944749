"""Span and count recorder wrapped around the public functions of each layer.

Each wrapper is installed where the calling layer looks the function up
(``parnav.cli.simulate``, ``parnav.optimal.spray_coefficients``, the
``NavMetric`` class, the ``parnav.numdiff`` module), only for the duration
of one traced op, and restored afterwards, so untraced ops and the
oracles run the unmodified program.

Every call records one span (name, start, end, parent span, op id) in
flat arrays that stay in memory until :meth:`Tracer.save` writes them.
Calls, row counts and self time (span duration minus the part covered by
child spans) are also accumulated on the fly per span name.
"""

from __future__ import annotations

import contextlib
import os
import time
from array import array

import numpy as np


def _rows_first_arg(args, out):
    return len(args[1])  # NavMetric.F_many(self, X, Y)


def _bytes_written(args, out):
    return os.path.getsize(args[0])  # write_csv(path, header, rows)


def _nodes_returned(args, out):
    return out.n_nodes  # SimResult or CurveRecord


def _certified_nodes(args, out):
    return args[1].n_nodes  # pmp_check(metric, curve)


def targets():
    """``(owner, attribute, span name, row counter)`` for every wrapped call."""
    import parnav.cli as cli
    import parnav.numdiff as numdiff
    import parnav.optimal as optimal
    from parnav.metric import NavMetric

    return [
        (cli, "parse_scenario_text", "cli.parse_scenario_text", None),
        (cli, "sim_table", "cli.sim_table", None),
        (cli, "curve_table", "cli.curve_table", None),
        (cli, "write_csv", "cli.write_csv", _bytes_written),
        (cli, "write_json", "cli.write_json", None),
        (cli, "simulate", "kinematics.simulate", _nodes_returned),
        (cli, "reparametrize_unit_F", "kinematics.reparametrize_unit_F", None),
        (cli, "collinearity_defect", "kinematics.collinearity_defect", None),
        (cli, "optimal_trajectory", "optimal.optimal_trajectory", _nodes_returned),
        (cli, "pmp_check", "optimal.pmp_check", _certified_nodes),
        (optimal, "maximized_hamiltonian", "optimal.maximized_hamiltonian", None),
        (optimal, "spray_coefficients", "geodesics.spray_coefficients", None),
        (optimal, "euler_lagrange_residual", "geodesics.euler_lagrange_residual", None),
        (NavMetric, "value", "metric.value", None),
        (NavMetric, "F_many", "metric.F_many", _rows_first_arg),
        (NavMetric, "fundamental_tensor", "metric.fundamental_tensor", None),
        (numdiff, "y_gradient", "numdiff.y_gradient", None),
        (numdiff, "x_gradient", "numdiff.x_gradient", None),
        (numdiff, "y_hessian", "numdiff.y_hessian", None),
        (numdiff, "xy_mixed", "numdiff.xy_mixed", None),
    ]


ROOT_SPAN = "cli.main"


class Tracer:
    """Records spans and per-name aggregates for the ops run under it."""

    def __init__(self):
        self._targets = targets()
        self.names = [ROOT_SPAN] + [t[2] for t in self._targets]
        k = len(self.names)
        self.calls = [0] * k
        self.total_ns = [0] * k
        self.self_ns = [0] * k
        self.rows = [0] * k
        # one entry per span
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self._stack = []
        self.op = -1

    def _wrap(self, nid: int, fn, rows=None):
        clock = time.perf_counter_ns
        stack = self._stack
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        calls, total_ns, self_ns, row_counts = self.calls, self.total_ns, self.self_ns, self.rows
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1][0] if stack else -1)
            s_op.append(tracer.op)
            s_start.append(0)
            s_end.append(0)
            frame = [sid, 0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                s_start[sid] = t0
                s_end[sid] = t1
                if stack:
                    stack[-1][1] += dur
                calls[nid] += 1
                total_ns[nid] += dur
                self_ns[nid] += dur - frame[1]
            if rows is not None:
                row_counts[nid] += rows(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self, op: int):
        """Trace the calls made inside the block as op ``op``."""
        saved = []
        self.op = op
        try:
            for nid, (owner, attr, _, rows) in enumerate(self._targets, start=1):
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(nid, fn, rows))
            yield
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self.op = -1

    def root(self, fn):
        """Wrap the op entry point itself as the root span."""
        return self._wrap(0, fn)

    def stats(self) -> dict:
        """Per-name aggregates: calls, rows, total and self seconds."""
        return {
            name: {
                "calls": self.calls[k],
                "rows": self.rows[k],
                "total_s": self.total_ns[k] * 1e-9,
                "self_s": self.self_ns[k] * 1e-9,
            }
            for k, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        """Write every recorded span to an ``.npz`` file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
        )
