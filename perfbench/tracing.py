"""The traced, in-process run that gives the per-layer metrics.

It drives the same loop as ``liens simulate`` (or ``symbolic_child.py``)
through the package's public functions, with a span around every call into
a layer. Calls the benchmark does not make itself (the FFTs, ``ns_rhs`` and
``leray_project`` inside a step) are traced by swapping the module attribute
the caller looks them up by for a timing wrapper, for the length of the run
only. After the loop come the probe calls: each accepted series step is
rebuilt to its retained order and evaluated, the final snapshot is read back
and the pressure of the final field is computed.

Spans (name, start, end, parent) are kept in memory and written out when the
run ends.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from workloads import SimSpec, SymbolicSpec, initial_field, symbolic_digest, symbolic_input


class Tracer:
    """Spans with parents, plus counters, kept in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def wrap(self, module, attr: str, name: str, count_bytes: bool = False) -> None:
        """Trace calls made through ``module.attr`` until ``unwrap``."""
        original = getattr(module, attr, None)
        if original is None:
            return

        def traced(*args, **kwargs):
            with self.span(name):
                out = original(*args, **kwargs)
            if count_bytes:
                self.add(name + ".bytes", args[-1].nbytes + out.nbytes)
            return out

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def unwrap(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans, "counts": self.counts}),
                        encoding="ascii")


def _wrap_layers(tr: Tracer) -> None:
    """Trace the calls into grid_spectral, leray and the oracles that the
    package makes internally, by the names its modules import them under."""
    import liens
    import liens.cli
    import liens.diagnostics
    import liens.grid_spectral
    import liens.leray
    import liens.lie_propagator
    import liens.reference_oracles

    callers = (liens.grid_spectral, liens.leray, liens.lie_propagator,
               liens.reference_oracles, liens.diagnostics, liens.cli)
    for mod in callers:
        tr.wrap(mod, "fftn_forward", "grid_spectral.fftn_forward", count_bytes=True)
        tr.wrap(mod, "ifftn_real", "grid_spectral.ifftn_real", count_bytes=True)
    tr.wrap(liens.reference_oracles, "ns_rhs", "leray.ns_rhs")
    for mod in (liens, liens.reference_oracles):
        tr.wrap(mod, "leray_project", "leray.leray_project")
    tr.wrap(liens, "random_divfree", "reference_oracles.random_divfree")


def trace_simulate(spec: SimSpec, seed: int, outdir: Path, tr: Tracer) -> dict:
    """Run one traced simulation into ``outdir``; return per-layer values."""
    with tr.span("import"):
        from liens import (TimeSeriesRecord, compute_pressure, energy, enstrophy_norm,
                           evaluate, read_snapshot, shell_spectrum, step,
                           taylor_coefficients, write_snapshot)
        from liens.diagnostics import balance_residuals, write_series_csv
        from liens.grid_spectral import div_max
        from liens.reference_oracles import rk4_step

    outdir.mkdir(parents=True, exist_ok=True)
    snapshot_bytes = 0

    def snapshot(path: Path, field) -> None:
        nonlocal snapshot_bytes
        with tr.span("grid_spectral.write_snapshot"):
            write_snapshot(path, field)
        snapshot_bytes += path.stat().st_size

    def record(t, v, order_used, dt):
        with tr.span("diagnostics.record"):
            return TimeSeriesRecord(t=t, energy=energy(v), enstrophy=enstrophy_norm(v),
                                    div_max=div_max(v), balance_residual=0.0,
                                    order_used=order_used, dt=dt)

    _wrap_layers(tr)
    try:
        with tr.span("setup"):
            u = initial_field(spec, seed)
        accepted = []  # (start field, order, dt) of every lie step
        halvings = 0
        with tr.span("run"):
            rows = [record(0.0, u, 0, 0.0)]
            current, remaining, number = u, spec.t_end, 0
            while remaining > 0.0:
                if spec.integrator == "lie":
                    with tr.span("lie_propagator.step"):
                        nxt, stats = step(current, spec.nu, remaining, tol=spec.tol,
                                          max_order=spec.max_order)
                    accepted.append((current, stats.order_used, stats.dt))
                    halvings += round(math.log2(remaining / stats.dt))
                    h, order = stats.dt, stats.order_used
                else:
                    h = min(spec.rk4_dt, remaining)
                    with tr.span("reference_oracles.rk4_step"):
                        nxt = rk4_step(current, spec.nu, h)
                    order = 4
                current, remaining, number = nxt, remaining - h, number + 1
                rows.append(record(spec.t_end - remaining, current, order, h))
                if spec.snapshot_cadence and number % spec.snapshot_cadence == 0:
                    snapshot(outdir / f"snapshot_{number // spec.snapshot_cadence:06d}.liens",
                             current)
            with tr.span("diagnostics.write_series_csv"):
                residuals = balance_residuals(rows, spec.nu)
                write_series_csv(outdir / "series.csv", [
                    TimeSeriesRecord(t=r.t, energy=r.energy, enstrophy=r.enstrophy,
                                     div_max=r.div_max, balance_residual=res,
                                     order_used=r.order_used, dt=r.dt)
                    for r, res in zip(rows, residuals)])
            with tr.span("diagnostics.shell_spectrum"):
                shell_spectrum(current)
            snapshot(outdir / "field_final.liens", current)
    finally:
        tr.unwrap()

    with tr.span("probes"):
        with tr.span("grid_spectral.read_snapshot"):
            read_snapshot(outdir / "field_final.liens")
        with tr.span("leray.compute_pressure"):
            compute_pressure(current)
        products, peak_mb, top = 0, 0.0, max((o for _, o, _ in accepted), default=-1)
        for start, order, dt in accepted:
            tracemalloc.start()
            with tr.span("lie_propagator.taylor_coefficients"):
                expansion = taylor_coefficients(start, spec.nu, order)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            if order == top:
                peak_mb = max(peak_mb, peak / 2**20)
            with tr.span("lie_propagator.evaluate"):
                evaluate(expansion, dt)
            del expansion
            products += order * (order + 1) // 2

    step_ms = tr.total_ms("lie_propagator.step")
    tc_ms = tr.total_ms("lie_propagator.taylor_coefficients")
    ev_ms = tr.total_ms("lie_propagator.evaluate")
    values = {
        "grid_spectral.fftn_forward.ms": tr.total_ms("grid_spectral.fftn_forward"),
        "grid_spectral.ifftn_real.ms": tr.total_ms("grid_spectral.ifftn_real"),
        "grid_spectral.fft.bytes_computed": tr.counts.get("grid_spectral.fftn_forward.bytes", 0)
        + tr.counts.get("grid_spectral.ifftn_real.bytes", 0),
        "grid_spectral.write_snapshot.ms": tr.total_ms("grid_spectral.write_snapshot"),
        "grid_spectral.read_snapshot.ms": tr.total_ms("grid_spectral.read_snapshot"),
        "grid_spectral.snapshot.bytes": snapshot_bytes,
        "leray.ns_rhs.ms": tr.total_ms("leray.ns_rhs"),
        "leray.leray_project.ms": tr.total_ms("leray.leray_project"),
        "leray.compute_pressure.ms": tr.total_ms("leray.compute_pressure"),
        "lie_propagator.taylor_coefficients.ms": tc_ms,
        "lie_propagator.evaluate.ms": ev_ms,
        "lie_propagator.cauchy_products_computed": products,
        "lie_propagator.expansion_peak_mb": peak_mb,
        "lie_propagator.step.ms": step_ms,
        "lie_propagator.steps": len(accepted),
        "lie_propagator.halvings": halvings,
        "lie_propagator.orders_retained": sum(o for _, o, _ in accepted),
        "lie_propagator.useful_frac": (tc_ms + ev_ms) / step_ms if step_ms else 0.0,
        "reference_oracles.rk4_step.ms": tr.total_ms("reference_oracles.rk4_step"),
        "reference_oracles.random_divfree.ms": tr.total_ms("reference_oracles.random_divfree"),
        "diagnostics.record.ms": tr.total_ms("diagnostics.record"),
        "diagnostics.shell_spectrum.ms": tr.total_ms("diagnostics.shell_spectrum"),
        "diagnostics.write_series_csv.ms": tr.total_ms("diagnostics.write_series_csv"),
    }
    wall_ms = sum(tr.total_ms(name) for name in ("import", "setup", "run"))
    return {"values": values, "wall_s": wall_ms / 1e3}


def trace_symbolic(spec: SymbolicSpec, seed: int, outdir: Path, tr: Tracer) -> dict:
    """The loop of ``symbolic_child.py``, traced; writes the same ``result.json``."""
    with tr.span("import"):
        from liens import a_power_u, eval_diffpoly, parse_diffpoly
        from liens.burgers1d import taylor_coefficients_burgers

    inp = symbolic_input(spec, seed)
    samples = np.array(inp["samples"])
    results, terms = [], 0
    with tr.span("setup"):
        with tr.span("operator_calculus.parse_diffpoly"):
            generators = [(text, parse_diffpoly(text)) for text in inp["generators"]]
    with tr.span("run"):
        for text, f in generators:
            for k in range(spec.order + 1):
                with tr.span("operator_calculus.a_power_u"):
                    p = a_power_u(f, k)
                with tr.span("operator_calculus.eval_diffpoly"):
                    values = eval_diffpoly(p, samples)
                n_terms = len(p.monomials())
                terms += n_terms
                results.append({"generator": text, "order": k,
                                "sha256": symbolic_digest(str(p)), "terms": n_terms,
                                "values": [float(v) for v in values]})
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "result.json").write_text(json.dumps({"results": results}), encoding="ascii")
    with tr.span("probes"), tr.span("burgers1d.taylor_coefficients_burgers"):
        taylor_coefficients_burgers(samples, spec.burgers_nu, spec.cross_order)
    values = {
        "operator_calculus.a_power_u.ms": tr.total_ms("operator_calculus.a_power_u"),
        "operator_calculus.terms": terms,
        "operator_calculus.eval_diffpoly.ms": tr.total_ms("operator_calculus.eval_diffpoly"),
        "burgers1d.taylor_coefficients_burgers.ms":
            tr.total_ms("burgers1d.taylor_coefficients_burgers"),
    }
    wall_ms = sum(tr.total_ms(name) for name in ("import", "setup", "run"))
    return {"values": values, "wall_s": wall_ms / 1e3}
