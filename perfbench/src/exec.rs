//! Kernel execution on the compiled bytecode engine and the simulated
//! machine. Every variant — the original schedule, the tiled code run
//! sequentially, the tiled code on the persistent pool — runs on the
//! same engine, so a difference between them is the transformation's.

use pluto_repro::codegen::{generate, original_schedule, Ast};
use pluto_repro::frontend::kernels::seed_value;
use pluto_repro::ir::Program;
use pluto_repro::machine::{
    compile_kernel, run_compiled_kernel, run_compiled_parallel, run_compiled_parallel_profiled,
    simulate, Arrays, CompiledKernel, MachineConfig, ParallelConfig,
};
use pluto_repro::obs::ExecProfile;
use std::time::Instant;

/// The three variants of a kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    Orig,
    Seq,
    Par,
}

impl Variant {
    pub const ALL: [Variant; 3] = [Variant::Orig, Variant::Seq, Variant::Par];

    pub fn name(self) -> &'static str {
        match self {
            Variant::Orig => "orig",
            Variant::Seq => "seq",
            Variant::Par => "par",
        }
    }
}

/// Initial array contents: the frontend's deterministic cell values,
/// shifted by the workload seed.
pub fn seeded_arrays(extents: Vec<Vec<usize>>, seed: u64) -> Arrays {
    let mut arrays = Arrays::new(extents);
    let shift = 16 * (seed % 4096) as usize;
    arrays.seed_with(|a, o| seed_value(a + shift, o));
    arrays
}

/// A kernel lowered to bytecode at fixed parameters, with the original
/// schedule's output as the reference every variant must reproduce
/// bit for bit.
pub struct Prepared {
    pub initial: Arrays,
    pub orig: CompiledKernel,
    pub pluto: CompiledKernel,
    pub reference: Arrays,
    /// Statement instances one run executes.
    pub instances: u64,
    /// Wall time of the two `compile_kernel` lowerings.
    pub lower_ms: f64,
}

impl Prepared {
    pub fn new(prog: &Program, pluto_ast: &Ast, params: &[i64], initial: Arrays) -> Prepared {
        let orig_ast = generate(prog, &original_schedule(prog));
        let start = Instant::now();
        let orig = compile_kernel(prog, &orig_ast, params, &initial);
        let pluto = compile_kernel(prog, pluto_ast, params, &initial);
        let lower_ms = crate::stats::ms(start.elapsed());
        let mut reference = initial.clone();
        let instances = run_compiled_kernel(&orig, &mut reference).instances;
        Prepared {
            initial,
            orig,
            pluto,
            reference,
            instances,
            lower_ms,
        }
    }

    /// Runs one variant on a fresh copy of the initial arrays and checks
    /// its output against the reference bit for bit. With `profiled`, a
    /// `Par` run also returns the pool's dispatch profile.
    pub fn run(&self, variant: Variant, threads: usize, profiled: bool) -> Run {
        let t0 = Instant::now();
        let mut arrays = self.initial.clone();
        let cfg = ParallelConfig {
            threads,
            collapse: 1,
        };
        let mut profile = None;
        let t1 = Instant::now();
        match variant {
            Variant::Orig => {
                run_compiled_kernel(&self.orig, &mut arrays);
            }
            Variant::Seq => {
                run_compiled_kernel(&self.pluto, &mut arrays);
            }
            Variant::Par if profiled => {
                profile = Some(run_compiled_parallel_profiled(&self.pluto, &mut arrays, cfg).1);
            }
            Variant::Par => {
                run_compiled_parallel(&self.pluto, &mut arrays, cfg);
            }
        }
        let t2 = Instant::now();
        let same = arrays.bitwise_eq(&self.reference);
        let t3 = Instant::now();
        Run {
            ms: crate::stats::ms(t2 - t1),
            prepare_ms: crate::stats::ms(t1 - t0),
            check_ms: crate::stats::ms(t3 - t2),
            same,
            profile,
        }
    }
}

/// One kernel run.
pub struct Run {
    /// Wall time of the engine call alone.
    pub ms: f64,
    /// Copying the initial arrays before the call.
    pub prepare_ms: f64,
    /// Comparing the output with the reference after it.
    pub check_ms: f64,
    /// The output equals the original schedule's bit for bit.
    pub same: bool,
    pub profile: Option<ExecProfile>,
}

/// One kernel's original and tiled schedules on the simulated 4-core
/// machine.
pub struct Simulated {
    pub orig_cycles: u64,
    pub pluto_cycles: u64,
    /// Wall time of the two `simulate` calls.
    pub wall_ms: f64,
    pub l2_misses: u64,
    pub accesses: u64,
    pub regions: u64,
    /// Both simulated runs left the arrays bitwise equal to each other.
    pub outputs_agree: bool,
}

pub fn simulate_pair(
    prog: &Program,
    pluto_ast: &Ast,
    params: &[i64],
    initial: &Arrays,
) -> Simulated {
    let orig_ast = generate(prog, &original_schedule(prog));
    let cfg = MachineConfig::default();
    let mut a = initial.clone();
    let mut b = initial.clone();
    let start = Instant::now();
    let orig = simulate(prog, &orig_ast, params, &mut a, cfg);
    let pluto = simulate(prog, pluto_ast, params, &mut b, cfg);
    let wall_ms = crate::stats::ms(start.elapsed());
    Simulated {
        orig_cycles: orig.cycles,
        pluto_cycles: pluto.cycles,
        wall_ms,
        l2_misses: orig.cache.l2_misses + pluto.cache.l2_misses,
        accesses: orig.cache.accesses + pluto.cache.accesses,
        regions: pluto.regions,
        outputs_agree: a.bitwise_eq(&b),
    }
}
