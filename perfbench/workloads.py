"""The benchmark's workloads and the correctness gate every cell goes through.

A cell is one graph compiled for one machine, or one graph costed by the
SIMT model. Every compiled program passes the gate before its numbers count:
no legality violations, an asm round trip that gives back the same program,
and a simulated root bit-equal to the reference interpreter. A cell that is
repeated must give the same QoR and the same asm as its first run. Failures
are counted, never raised.

Only names exported by `spnforge/__init__.py` are called, plus the graph
generators from `spnforge.ir`.
"""

from __future__ import annotations

import hashlib
import random
import statistics

from spnforge import (
    ProcessorConfig,
    SimtConfig,
    SpnForgeError,
    binarize,
    check_legality,
    emit_asm,
    encode_vectors,
    eval_list,
    gen_random_spn,
    parse_asm,
    run,
    schedule,
    simulate_simt,
)
from spnforge.fp32 import same_bits
from spnforge.ir import make_mixture_spn

MACHINES = {"ptree": ProcessorConfig.ptree(), "pvect": ProcessorConfig.pvect()}
SIMT = SimtConfig(num_threads=32)

# Graphs per random-dags pass. A run is whole passes, so a short pass keeps
# the run close to its length; a run of ~4 s passes times out at >= 100
# compiles, enough for a p90 with ten samples beyond it.
RANDOM_DAGS_PER_PASS = 12

# QoR of the mixture cells at generator seed 0, measured when the benchmark
# was defined. Printed beside each run's values; a difference is reported,
# not counted as a failure, because QoR is what compiler changes aim to move.
MIXTURE_REFERENCE = {
    "mixture-1024x4/ptree": (26.94, 0),
    "mixture-1024x4/pvect": (9.37, 18),
    "mixture-1024x4/simt-32": (6.27, None),
    "mixture-1024x8/ptree": (14.68, 82),
    "mixture-1024x8/pvect": (6.44, 82),
    "mixture-1024x8/simt-32": (7.93, None),
}


class Run:
    """Timings, QoR, counters and verdicts of one benchmark run."""

    def __init__(self, clk, seed: int):
        self.clk = clk
        self.seed = seed
        self.samples = 0
        self.times: dict[tuple[str, str], list] = {}  # (stage, cell key) -> [work, [intervals]]
        self.cells: dict[str, tuple] = {}  # cell key -> QoR and asm hash of its first run
        self.qor: dict[str, dict] = {}  # cell key -> QoR of its first run, for the report
        self.attempted = 0
        self.failures: list[str] = []

    def vector(self, name: str, rep: int, n: int) -> list[float]:
        rng = random.Random(f"{self.seed}/{name}/{rep}")
        return [rng.random() for _ in range(n)]

    def time(self, stage: str, key: str, work: int, intervals: list[tuple[float, float]]):
        """Record the host intervals of one repetition of one piece of work."""
        self.samples += 1
        self.times.setdefault((stage, key), [work, []])[1].append(intervals)

    def median_times(self, stage: str, seconds) -> list[tuple[str, int, float]]:
        """(cell key, work, median seconds over its repetitions) per piece of
        work at `stage`.

        `seconds` converts one repetition's intervals to seconds. A run
        repeats identical work; the median ignores a repetition that a burst
        of host speed or a stall made unusually fast or slow.
        """
        return [(key, w, statistics.median(seconds(ivs) for ivs in reps))
                for (s, key), (w, reps) in self.times.items() if s == stage]

    def fail(self, key: str, why: str):
        self.failures.append(f"{key}: {why}")

    def verdict(self, key: str, fingerprint: tuple, problems: list[str]) -> bool:
        first = self.cells.setdefault(key, fingerprint)
        if first != fingerprint:
            problems.append(f"QoR or asm {fingerprint} differs from first run {first}")
        if problems:
            self.fail(key, "; ".join(problems))
        return not problems


def compile_cell(r: Run, name: str, g, machine: str, rep: int, checks: int = 1):
    """Compile `g` for one machine, then gate the program `checks` times,
    each on its own seeded vector. Returns (bg, program, report) or None."""
    clk, cfg, key = r.clk, MACHINES[machine], f"{name}/{machine}"
    try:
        bg = clk.call("ir.binarize", binarize, g)
        compiling = [clk.last]
        prog = clk.call("compiler.schedule", schedule, bg, cfg)
        compiling.append(clk.last)
    except SpnForgeError as e:
        r.attempted += 1
        r.fail(key, f"{type(e).__name__}: {e}")
        return None
    r.time("compile", key, bg.num_internal, compiling)
    for j in range(checks):
        gated = gate(r, key, bg, prog, r.vector(name, rep * checks + j, bg.num_leaves))
        if gated is None:
            return None
    report, asm_hash = gated
    if rep == 0:
        r.qor[key] = {"ops": report.effective_ops, "cycles": report.total_cycles,
                      "ops_per_cycle": report.ops_per_cycle, "spill_rows": report.spill_rows_used,
                      "mem_ops": report.mem_ops, "nop_cycles": report.nop_cycles, "asm": asm_hash}
    for k in ("instructions", "nop_cycles", "spill_stores", "reload_loads",
              "conflict_deferrals", "capacity_deferrals"):
        clk.count(f"compiler.{k}", prog.meta.get(k, 0))
    return bg, prog, report


def gate(r: Run, key: str, bg, prog, vec: list[float]):
    """Verify one program on one vector. Returns (report, asm hash) or None."""
    clk, cfg = r.clk, prog.config
    r.attempted += 1
    try:
        violations = clk.call("machine.check_legality", check_legality, prog)
        verifying = [clk.last]
        text = clk.call("isa.emit_asm", emit_asm, prog)
        verifying.append(clk.last)
        back = clk.call("isa.parse_asm", parse_asm, text, cfg)
        verifying.append(clk.last)
        report = clk.call("machine.run", run, prog, vec)
        verifying.append(clk.last)
        r.time("run", key, report.total_cycles, [clk.last])
        want = clk.call("reference.eval_list", eval_list, bg, vec)
        verifying.append(clk.last)
    except SpnForgeError as e:
        r.fail(key, f"{type(e).__name__}: {e}")
        return None
    r.time("verify", key, bg.num_internal, verifying)

    problems = []
    if violations:
        problems.append(f"{len(violations)} legality violations, first {violations[0]}")
    if back != prog:
        problems.append("asm round trip gives a different program")
    if not same_bits(report.root_value, want):
        problems.append(f"root {report.root_value!r} != eval_list {want!r}")
    asm_hash = hashlib.sha256(text.encode()).hexdigest()[:16]
    fingerprint = (report.total_cycles, report.effective_ops, report.spill_rows_used,
                   report.mem_ops, asm_hash)
    if not r.verdict(key, fingerprint, problems):
        return None
    clk.count("isa.asm_bytes", len(text))
    clk.count("machine.violations", len(violations))
    count_run(clk, report)
    return report, asm_hash


def count_run(clk, report):
    clk.count("machine.sim_cycles", report.total_cycles)
    clk.count("machine.mem_ops", report.mem_ops)
    clk.count("machine.passes", report.passes)
    clk.count("machine.spill_rows", report.spill_rows_used)


def simt_cell(r: Run, name: str, bg, rep: int):
    """Cost a binarized graph on the SIMT model."""
    clk, key = r.clk, f"{name}/simt-32"
    r.attempted += 1
    try:
        enc = clk.call("reference.encode_vectors", encode_vectors, bg)
        costing = [clk.last]
        report = clk.call("simt.simulate_simt", simulate_simt, enc, SIMT)
        costing.append(clk.last)
    except SpnForgeError as e:
        r.fail(key, f"{type(e).__name__}: {e}")
        return
    r.time("simt", key, enc.num_ops, costing)
    fingerprint = (report.total_cycles, report.cycles_conflict_serialization,
                   report.cycles_divergence, report.cycles_sync)
    if not r.verdict(key, fingerprint, []):
        return
    if rep == 0:
        r.qor[key] = {"ops": enc.num_ops, "cycles": report.total_cycles,
                      "ops_per_cycle": report.ops_per_cycle,
                      "conflict_cycles": report.cycles_conflict_serialization}
    clk.count("simt.warp_steps", sum(gc.warp_steps for gc in report.per_group))
    clk.count("simt.cycles_conflict", report.cycles_conflict_serialization)
    clk.count("simt.cycles_divergence", report.cycles_divergence)
    clk.count("simt.cycles_sync", report.cycles_sync)


def graph_cells(r: Run, name: str, g, rep: int, checks: int):
    """Every cell of one graph: ptree, pvect and the SIMT model."""
    bg = None
    for machine in MACHINES:
        out = compile_cell(r, name, g, machine, rep, checks)
        if out is not None:
            bg = out[0]
    if bg is not None:
        simt_cell(r, name, bg, rep)


class GraphWorkload:
    """Set-up generates graphs; each timed unit runs every cell of one graph."""

    CHECKS = 1  # gate runs per compiled program, each on its own vector

    def __init__(self, r: Run):
        self.r = r
        self.graphs: list[tuple[str, object]] = []

    def units(self) -> int:
        return len(self.graphs)

    def unit(self, i: int, rep: int):
        name, g = self.graphs[i]
        graph_cells(self.r, name, g, rep, self.CHECKS)


class Mixture(GraphWorkload):
    """The paper's dense tree-shaped SPNs at the ROADMAP's DSATUR sizes.

    The graphs are fixed (generator seed 0) so that QoR is exact and can be
    compared with MIXTURE_REFERENCE; the run seed picks the input vectors.
    Each graph is compiled once per run, so each program is gated on eight
    vectors to give the verify and `run` timings several repetitions.
    """

    CHECKS = 8

    def setup(self):
        self.graphs = [
            (f"mixture-1024x{k}", self.r.clk.call("ir.generate", make_mixture_spn, 1024, k))
            for k in (4, 8)
        ]


class RandomDags(GraphWorkload):
    """Small irregular DAGs with shared subexpressions, over successive seeds."""

    def setup(self):
        base = self.r.seed * 1000
        self.graphs = [
            (f"random-{base + i}",
             self.r.clk.call("ir.generate", gen_random_spn, 64, 500, 2, 0.5, base + i, 0.5))
            for i in range(RANDOM_DAGS_PER_PASS)
        ]


class Simulate:
    """Compile once, evaluate many: each unit compiles and gates one program,
    then streams seeded vectors through `run`, each checked against
    `eval_list`. Only `run` counts towards `sim_cycles_per_s`, so a compiler
    change moves this workload's compile metrics but not its headline.
    """

    GRAPHS = {
        "mixture-1024x4": (make_mixture_spn, (1024, 4)),
        "mixture-2048x1": (make_mixture_spn, (2048, 1)),
        "random-256x1000": (gen_random_spn, (256, 1000, 2, 0.5, 0, 0.15)),
    }
    PROGRAMS = (("mixture-1024x4", "ptree"), ("mixture-2048x1", "ptree"),
                ("random-256x1000", "ptree"), ("random-256x1000", "pvect"))
    SIMT_GRAPH = "random-256x1000"  # the SIMT model costs this graph in each of its units
    VECTORS_PER_COMPILE = 8

    def __init__(self, r: Run):
        self.r = r
        self.graphs: dict[str, object] = {}

    def setup(self):
        self.graphs = {name: self.r.clk.call("ir.generate", gen, *args)
                       for name, (gen, args) in self.GRAPHS.items()}

    def units(self) -> int:
        return len(self.PROGRAMS)

    def unit(self, i: int, rep: int):
        r, clk = self.r, self.r.clk
        name, machine = self.PROGRAMS[i]
        out = compile_cell(r, name, self.graphs[name], machine, rep)
        if out is None:
            return
        bg, prog, first = out
        if name == self.SIMT_GRAPH:
            simt_cell(r, name, bg, rep)
        for v in range(self.VECTORS_PER_COMPILE):
            key = f"{name}/{machine}/vector {rep}.{v}"
            vec = r.vector(key, 0, bg.num_leaves)
            want = clk.call("reference.eval_list", eval_list, bg, vec)
            r.attempted += 1
            try:
                report = clk.call("machine.run", run, prog, vec)
            except SpnForgeError as e:
                r.fail(key, f"{type(e).__name__}: {e}")
                continue
            r.time("run", f"{name}/{machine}", report.total_cycles, [clk.last])
            count_run(clk, report)
            if not same_bits(report.root_value, want):
                r.fail(key, f"root {report.root_value!r} != eval_list {want!r}")
            elif (report.total_cycles, report.mem_ops) != (first.total_cycles, first.mem_ops):
                r.fail(key, "cycles or memory ops differ from the compile's own run")


WORKLOADS = {"mixture": Mixture, "random-dags": RandomDags, "simulate": Simulate}
