//! Kernel runs and simulations shared by the workloads: per-kernel
//! execution samples summarised into the `exec_*` and `machine.*`
//! metrics, and the simulated-machine pass behind `sim_*`.

use crate::exec::{simulate_pair, Prepared, Variant};
use crate::kernels::KERNELS;
use crate::report::Report;
use crate::stats::{geomean, median};
use pluto_repro::codegen::Ast;
use pluto_repro::ir::Program;
use pluto_repro::machine::Arrays;

/// Wall-time samples per kernel (in `KERNELS` order) and variant.
pub struct ExecSamples {
    pub ms: Vec<[Vec<f64>; 3]>,
    pub instances: Vec<u64>,
}

impl ExecSamples {
    pub fn new(instances: Vec<u64>) -> ExecSamples {
        ExecSamples {
            ms: instances.iter().map(|_| Default::default()).collect(),
            instances,
        }
    }

    pub fn push(&mut self, kernel: usize, variant: Variant, ms: f64) {
        self.ms[kernel][variant as usize].push(ms);
    }

    /// `exec_{orig,seq,par}_ms` (geometric mean over kernels of each
    /// kernel's median), the per-kernel rows, and `machine.mips.*`.
    pub fn summarize(&self, rep: &mut Report) {
        for v in Variant::ALL {
            let i = v as usize;
            let medians: Vec<f64> = self.ms.iter().map(|s| median(&s[i])).collect();
            let n = self.ms.iter().map(|s| s[i].len()).sum();
            rep.set(format!("exec_{}_ms", v.name()), geomean(&medians), n);
            for (k, m) in medians.iter().enumerate() {
                rep.set(
                    format!("exec.{}.{}_ms", KERNELS[k].name, v.name()),
                    *m,
                    self.ms[k][i].len(),
                );
            }
            let (mut inst, mut ms) = (0.0, 0.0);
            for (k, s) in self.ms.iter().enumerate() {
                inst += self.instances[k] as f64 * s[i].len() as f64;
                ms += s[i].iter().sum::<f64>();
            }
            rep.set(format!("machine.mips.{}", v.name()), inst / ms / 1e3, n);
        }
    }
}

/// Runs every variant of every prepared kernel once, checking each
/// output against the original schedule's.
pub fn exec_round(
    prepared: &[Prepared],
    threads: usize,
    samples: &mut ExecSamples,
    rep: &mut Report,
) {
    for (k, p) in prepared.iter().enumerate() {
        for v in Variant::ALL {
            let run = p.run(v, threads, false);
            rep.op(run.same, || {
                format!(
                    "{} {}: output differs from the original schedule",
                    KERNELS[k].name,
                    v.name()
                )
            });
            samples.push(k, v, run.ms);
        }
    }
}

/// One kernel to simulate: its program, tiled AST, small parameters, and
/// initial arrays.
pub struct SimInput<'a> {
    pub prog: &'a Program,
    pub ast: &'a Ast,
    pub params: &'a [i64],
    pub initial: Arrays,
}

/// Simulated-machine passes: each simulates every kernel's original and
/// tiled schedule on the 4-core machine.
#[derive(Default)]
pub struct SimTally {
    pass_ms: Vec<f64>,
    cycles: Vec<(u64, u64)>,
    l2_misses: u64,
    accesses: u64,
    regions: u64,
}

impl SimTally {
    pub fn pass(&mut self, inputs: &[SimInput], rep: &mut Report) {
        let first = self.pass_ms.is_empty();
        let mut wall = 0.0;
        for (k, inp) in inputs.iter().enumerate() {
            let s = simulate_pair(inp.prog, inp.ast, inp.params, &inp.initial);
            wall += s.wall_ms;
            let name = KERNELS[k].name;
            rep.op(s.outputs_agree, || {
                format!("{name}: simulated tiled output differs from the original schedule")
            });
            if first {
                self.cycles.push((s.orig_cycles, s.pluto_cycles));
                self.l2_misses += s.l2_misses;
                self.accesses += s.accesses;
                self.regions += s.regions;
            } else {
                rep.op(self.cycles[k] == (s.orig_cycles, s.pluto_cycles), || {
                    format!("{name}: simulated cycles differ between passes")
                });
            }
        }
        self.pass_ms.push(wall);
    }

    /// `sim_s` is the median pass wall time, `sim_speedup` the geometric
    /// mean of orig ÷ pluto cycles (exact).
    pub fn report(&self, rep: &mut Report) {
        let speedups: Vec<f64> = self
            .cycles
            .iter()
            .map(|&(o, p)| o as f64 / p as f64)
            .collect();
        let n = self.pass_ms.len();
        rep.set("sim_speedup", geomean(&speedups), speedups.len());
        rep.set("sim_s", median(&self.pass_ms) / 1e3, n);
        rep.set("machine.simulate_ms", median(&self.pass_ms), n);
        let ratio = self.l2_misses as f64 / self.accesses.max(1) as f64;
        rep.set("machine.sim_l2_miss_ratio", ratio, self.cycles.len());
        rep.set(
            "machine.sim_regions",
            self.regions as f64,
            self.cycles.len(),
        );
        for (k, &(o, p)) in self.cycles.iter().enumerate() {
            rep.set(format!("sim.{}.orig_cycles", KERNELS[k].name), o as f64, n);
            rep.set(format!("sim.{}.pluto_cycles", KERNELS[k].name), p as f64, n);
        }
    }
}

/// Side measurements spread over a workload's whole measured phase — the
/// host's speed drifts over seconds, so a metric measured in one burst
/// at the end would see a different host than the main phase. Each
/// `step` runs one round of small-size executions (when there are
/// prepared kernels) and every `SIM_EVERY`-th step one simulated pass.
pub struct Side<'a> {
    prepared: &'a [Prepared],
    sims: &'a [SimInput<'a>],
    exec: ExecSamples,
    tally: SimTally,
    steps: usize,
}

/// Side steps per simulated-machine pass.
pub const SIM_EVERY: usize = 3;

impl<'a> Side<'a> {
    pub fn new(prepared: &'a [Prepared], sims: &'a [SimInput<'a>]) -> Side<'a> {
        Side {
            prepared,
            sims,
            exec: ExecSamples::new(prepared.iter().map(|p| p.instances).collect()),
            tally: SimTally::default(),
            steps: 0,
        }
    }

    pub fn step(&mut self, rep: &mut Report) {
        exec_round(self.prepared, crate::parallelism(), &mut self.exec, rep);
        if self.steps.is_multiple_of(SIM_EVERY) {
            self.tally.pass(self.sims, rep);
        }
        self.steps += 1;
    }

    /// Reports the side metrics (the `exec_*` ones only when the side
    /// ran kernels: `run-kernels` reports its own from the main phase).
    pub fn finish(mut self, rep: &mut Report) {
        if self.steps == 0 {
            self.step(rep);
        }
        if !self.prepared.is_empty() {
            self.exec.summarize(rep);
            rep.set(
                "machine.lower_ms",
                self.prepared.iter().map(|p| p.lower_ms).sum::<f64>(),
                self.prepared.len(),
            );
        }
        self.tally.report(rep);
    }
}
