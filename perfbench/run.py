"""spnforge benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload mixture --seed 0 --seconds 15 --trace 0

Run from the root of a source tree; the package is imported from `src/`.
Set-up runs SETUP_REPS times and `setup_s` is their median. The timed phase
then runs whole passes over the workload's units, one call at a time, each
after the previous one returns, until `--seconds` have passed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. Lines before it give
per-cell QoR, sample counts and, when traced, each layer's self time.
Metric names and units come from BENCHMARK.json. Traces and determinism
digests are written to `perfbench-out/`. perfbench/METRICS.md defines every
metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
SETUP_REPS = 5

# Per-layer metric -> span whose self time it reports. The schedule and SIMT
# spans contain the interposed stage spans, so their self times are the
# remainder. The other per-layer metrics are counters or `bench.*` totals.
SELF_TIME = {
    "ir.generate_s": "ir.generate",
    "ir.binarize_s": "ir.binarize",
    "compiler.pack_cones_s": "compiler.pack_cones",
    "compiler.insert_dups_s": "compiler.insert_dups",
    "compiler.allocate_banks_s": "compiler.allocate_banks",
    "compiler.list_schedule_s": "compiler.schedule",
    "isa.emit_asm_s": "isa.emit_asm",
    "isa.parse_asm_s": "isa.parse_asm",
    "machine.check_legality_s": "machine.check_legality",
    "machine.run_s": "machine.run",
    "reference.eval_list_s": "reference.eval_list",
    "reference.encode_vectors_s": "reference.encode_vectors",
    "simt.color_banks_s": "simt.color_banks",
    "simt.cost_model_s": "simt.simulate_simt",
}
INCLUSIVE = {"compiler.schedule_s": "compiler.schedule", "simt.simulate_s": "simt.simulate_simt"}


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json lists `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description="spnforge benchmark")
    p.add_argument("--workload", required=True, choices=("mixture", "random-dags", "simulate"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def interpose(tracer):
    """Spans for the stages `schedule` and `simulate_simt` call internally."""
    import spnforge.compiler
    import spnforge.simt

    packed = [0]

    def on_pack(cones):
        packed[0] = len(cones)
        tracer.count("compiler.cones", len(cones))
        tracer.count("compiler.cone_ops", sum(c.n_ops for c in cones))

    def on_allocate(alloc):
        tracer.count("compiler.dup_cones", len(alloc.cones) - packed[0])

    tracer.interpose(spnforge.compiler, "pack_cones", "compiler.pack_cones", on_pack)
    tracer.interpose(spnforge.compiler, "_insert_dups", "compiler.insert_dups")
    tracer.interpose(spnforge.compiler, "allocate_banks", "compiler.allocate_banks", on_allocate)
    tracer.interpose(spnforge.simt, "color_banks", "simt.color_banks")


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(r, workload: str, seed: int):
    """QoR and asm of each cell must match any earlier run of the same sources.

    Traced and untraced runs share the digest, so this also checks that
    tracing changes no result.
    """
    path = OUT / f"digest-{workload}-seed{seed}-{source_fingerprint()}.json"
    cells = {key: list(fp) for key, fp in r.cells.items()}
    if path.is_file():
        earlier = json.loads(path.read_text())
        for key in sorted(cells.keys() & earlier.keys()):
            r.attempted += 1
            if cells[key] != earlier[key]:
                r.fail(key, f"QoR or asm {cells[key]} differs from an earlier run {earlier[key]}")
        return
    OUT.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(cells, sort_keys=True))
    os.replace(tmp, path)


def geomean(xs: list[float]) -> float:
    return math.exp(sum(math.log(x) for x in xs) / len(xs)) if xs else 0.0


def rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def end_to_end(r, speed, setups: list[tuple[float, float]]) -> dict[str, float]:
    def throughput(stage):
        timed = r.median_times(stage, speed.seconds)
        return rate(sum(w for _, w, _ in timed), sum(t for _, _, t in timed))

    # Compile latency per graph: binarize + schedule for every machine the
    # workload compiles it for. Per compile, ptree and pvect form two
    # clusters and the median falls between them.
    per_graph: dict[str, float] = {}
    for key, _, t in r.median_times("compile", speed.seconds):
        graph = key.rsplit("/", 1)[0]
        per_graph[graph] = per_graph.get(graph, 0.0) + t
    lat = sorted(per_graph.values())
    by_machine = {m: [q["ops_per_cycle"] for k, q in r.qor.items() if k.endswith(f"/{m}")]
                  for m in ("ptree", "pvect", "simt-32")}
    return {
        "setup_s": statistics.median(speed.seconds([iv]) for iv in setups),
        "compile_ops_per_s": throughput("compile"),
        "compile_s_p50": statistics.median(lat) if lat else 0.0,
        "compile_s_p90": statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else sum(lat),
        "verify_ops_per_s": throughput("verify"),
        "sim_cycles_per_s": throughput("run"),
        "simt_ops_per_s": throughput("simt"),
        "ptree.ops_per_cycle": geomean(by_machine["ptree"]),
        "pvect.ops_per_cycle": geomean(by_machine["pvect"]),
        "simt.ops_per_cycle": geomean(by_machine["simt-32"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, names, times, wall: float, span_cost: float) -> dict[str, float]:
    c = tracer.counts.get
    out = {name: times.get(span, (0.0, 0.0, 0))[0] for name, span in SELF_TIME.items()}
    out.update({name: times.get(span, (0.0, 0.0, 0))[1] for name, span in INCLUSIVE.items()})
    for name in names:
        if name not in out and not name.startswith("bench."):
            out[name] = c(name, 0)
    out["compiler.ops_per_cone"] = rate(c("compiler.cone_ops", 0), c("compiler.cones", 0))
    placed = c("compiler.cones", 0) + c("compiler.dup_cones", 0)
    tries = placed + c("compiler.conflict_deferrals", 0) + c("compiler.capacity_deferrals", 0)
    out["compiler.place_ratio"] = rate(placed, tries)
    out["bench.wall_s"] = wall
    out["bench.harness_s"] = wall - sum(own for own, _, _ in times.values())
    out["bench.trace_overhead_s"] = sum(n for _, _, n in times.values()) * span_cost
    return out


def report_trace(tracer, times, workload: str, seed: int, t0: float, wall: float):
    print(f"self time per span over the first set-up and first pass, {wall:.3f} s wall:")
    for name in sorted(times, key=lambda k: times[k][0], reverse=True):
        own, incl, n = times[name]
        print(f"  {name:28s} self {own:9.4f} s  incl {incl:9.4f} s  calls {n}")
    print(f"  {'harness':28s} self {wall - sum(v[0] for v in times.values()):9.4f} s")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{workload}-seed{seed}.json"
    spans = [[n, s - t0, e - t0, p, cell] for n, s, e, p, cell in tracer.spans]
    path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent", "cell"],
                                "spans": spans}))
    print(f"{len(spans)} spans of the whole run written to {path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spnforge" / "__init__.py").is_file():
        print(f"perfbench: no spnforge package under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    from tracing import REFERENCE_PROBE_S, Clock, HostSpeed, Tracer, clock, span_cost
    from workloads import MIXTURE_REFERENCE, WORKLOADS, Run

    clk = Tracer() if args.trace else Clock()
    r = Run(clk, args.seed)
    workload = WORKLOADS[args.workload](r)
    if clk.traced:
        interpose(clk)
    setups: list[tuple[float, float]] = []
    try:
        with HostSpeed() as speed:
            t_start = clock()
            for i in range(SETUP_REPS):
                clk.cell, clk.counting = f"setup {i}", i == 0
                t0 = clock()
                workload.setup()
                setups.append((t0, clock()))
                speed.sample()
            units = workload.units()
            t0 = clock()
            passes = 0
            while passes == 0 or clock() < t0 + args.seconds:
                for i in range(units):
                    clk.cell, clk.counting = f"unit {i} rep {passes}", passes == 0
                    workload.unit(i, passes)
                if passes == 0:
                    first_pass = clock() - t0
                passes += 1
    finally:
        if clk.traced:
            clk.restore()

    check_digest(r, args.workload, args.seed)
    for key, q in r.qor.items():
        print(key + ": " + " ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                                    for k, v in q.items()))
    if args.workload == "mixture":
        for key, (opc, spill) in MIXTURE_REFERENCE.items():
            q = r.qor.get(key, {})
            same = round(q.get("ops_per_cycle", 0.0), 2) == opc and q.get("spill_rows") == spill
            print(f"reference {key}: ops/cycle {opc} spill_rows {spill}: "
                  f"{'match' if same else 'DIFFERS'}")
    compiles = len(r.median_times("compile", speed.seconds))
    graphs = len({key.rsplit("/", 1)[0] for key, _, _ in r.median_times("compile", speed.seconds)})
    if speed.took:
        print(f"host speed: {len(speed.took)} probes, median {1000 * statistics.median(speed.took):.3f} ms "
              f"against a reference of {1000 * REFERENCE_PROBE_S:.3f} ms")
    print(f"passes run: {passes} of {units} units; timed calls: {r.samples}; "
          f"distinct compiles: {compiles} of {graphs} graphs; set-up reps: {SETUP_REPS}")
    for line in r.failures[:20]:
        print("FAIL " + line)

    if clk.traced:
        # Per-layer metrics cover a fixed amount of work: the first set-up and
        # the first pass of units. Later repetitions only fill the run length.
        window = {"setup 0"} | {f"unit {i} rep 0" for i in range(units)}
        times = clk.layer_times(window)
        wall = setups[0][1] - setups[0][0] + first_pass
        report_trace(clk, times, args.workload, args.seed, t_start, wall)
        units_of = declared_units("per_layer")
        values = per_layer(clk, units_of, times, wall, span_cost())
    else:
        units_of = declared_units("end_to_end")
        values = end_to_end(r, speed, setups)
    failed = len(r.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": r.attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units_of[name]} for name in units_of},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
