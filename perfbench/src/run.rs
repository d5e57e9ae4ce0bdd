//! `run-kernels`: the thirteen `pluto_frontend::kernels` programs,
//! compiled during set-up, executed at large sizes in three variants on
//! the same bytecode engine — the original schedule, the tiled code run
//! sequentially, and the tiled code on the persistent pool — plus one
//! simulated-machine pass at small sizes. No compile layer runs in the
//! measured phase.

use crate::compile;
use crate::exec::{seeded_arrays, Prepared, Variant};
use crate::kernels::KERNELS;
use crate::probe::{ExecSamples, Side, SimInput};
use crate::report::Report;
use crate::stats::{geomean, mean, median, quantile, Rng};
use crate::Args;
use pluto_repro::codegen::Ast;
use pluto_repro::frontend::kernels;
use std::time::Instant;

struct Compiled {
    kernel: kernels::Kernel,
    ast: Ast,
}

/// Compiles every kernel (each under a fresh session) and lowers it at
/// its large size, running the original schedule once for the
/// reference output.
fn setup(seed: u64) -> (Vec<Compiled>, Vec<Prepared>) {
    let opt = compile::optimizer();
    let mut compiled = Vec::new();
    let mut prepared = Vec::new();
    for ((name, kernel), k) in kernels::all().into_iter().zip(KERNELS) {
        assert_eq!(
            name, k.name,
            "kernel table out of step with pluto_frontend::kernels::all()"
        );
        let (ast, _) = compile::compile_program(&kernel.program, &opt)
            .unwrap_or_else(|e| panic!("{name}: compile failed: {e}"));
        let initial = seeded_arrays((kernel.extents)(k.large), seed);
        prepared.push(Prepared::new(&kernel.program, &ast, k.large, initial));
        compiled.push(Compiled { kernel, ast });
    }
    (compiled, prepared)
}

/// What one measured phase saw.
struct Phase {
    samples: ExecSamples,
    cycles: usize,
    /// Wall time of the cycles themselves (side steps excluded).
    wall_ms: f64,
    /// Summed spans: engine calls per variant, array copies, checks.
    variant_ms: [f64; 3],
    prepare_ms: f64,
    check_ms: f64,
    dispatches: u64,
    imbalance: Vec<f64>,
    barrier_ms: f64,
}

/// Compile sweeps of the thirteen programs between cycles: the source of
/// `compile_*` here, never inside a timed run.
struct Compiles<'a> {
    compiled: &'a [Compiled],
    ms: Vec<Vec<f64>>,
}

impl Compiles<'_> {
    fn sweep(&mut self, rep: &mut Report) {
        let opt = compile::optimizer();
        for (k, c) in self.compiled.iter().enumerate() {
            match compile::compile_program(&c.kernel.program, &opt) {
                Ok((_, ms)) => {
                    rep.op(true, String::new);
                    self.ms[k].push(ms);
                }
                Err(e) => rep.op(false, || {
                    format!("{}: compile failed: {e}", KERNELS[k].name)
                }),
            }
        }
    }
}

/// Runs whole cycles — every (kernel, variant) pair once, in a seeded
/// order — each followed by a side step and every second one by a
/// compile sweep, until `seconds` have passed.
fn measure(
    prepared: &[Prepared],
    rng: &mut Rng,
    seconds: f64,
    traced: bool,
    side: &mut Side,
    compiles: &mut Compiles,
    rep: &mut Report,
) -> Phase {
    let threads = crate::parallelism();
    let mut ph = Phase {
        samples: ExecSamples::new(prepared.iter().map(|p| p.instances).collect()),
        cycles: 0,
        wall_ms: 0.0,
        variant_ms: [0.0; 3],
        prepare_ms: 0.0,
        check_ms: 0.0,
        dispatches: 0,
        imbalance: Vec::new(),
        barrier_ms: 0.0,
    };
    let mut pairs: Vec<(usize, Variant)> = (0..prepared.len())
        .flat_map(|k| Variant::ALL.map(|v| (k, v)))
        .collect();
    let phase = Instant::now();
    while ph.cycles == 0 || phase.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        rng.shuffle(&mut pairs);
        for &(k, v) in &pairs {
            let run = prepared[k].run(v, threads, traced);
            rep.op(run.same, || {
                format!(
                    "{} {}: output differs from the original schedule",
                    KERNELS[k].name,
                    v.name()
                )
            });
            ph.samples.push(k, v, run.ms);
            ph.variant_ms[v as usize] += run.ms;
            ph.prepare_ms += run.prepare_ms;
            ph.check_ms += run.check_ms;
            if let Some(p) = run.profile {
                ph.dispatches += p.dispatches;
                ph.imbalance.push(p.imbalance_mean);
                ph.barrier_ms += p.barrier_wait_ns as f64 / 1e6;
            }
        }
        ph.wall_ms += crate::stats::ms(start.elapsed());
        ph.cycles += 1;
        side.step(rep);
        if !ph.cycles.is_multiple_of(2) {
            compiles.sweep(rep);
        }
    }
    ph
}

pub fn run(args: &Args, rep: &mut Report) {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..crate::SETUPS {
        // Drop the previous set-up first, so peak memory is one set-up's.
        state.take();
        let t = Instant::now();
        state = Some(setup(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (compiled, prepared) = state.expect("at least one set-up");
    rep.set("setup_s", median(&setup_s), setup_s.len());
    rep.set(
        "machine.lower_ms",
        prepared.iter().map(|p| p.lower_ms).sum::<f64>(),
        prepared.len(),
    );

    let inputs: Vec<SimInput> = compiled
        .iter()
        .zip(KERNELS)
        .map(|(c, k)| SimInput {
            prog: &c.kernel.program,
            ast: &c.ast,
            params: k.small,
            initial: seeded_arrays((c.kernel.extents)(k.small), args.seed),
        })
        .collect();
    let mut side = Side::new(&[], &inputs);
    let mut compiles = Compiles {
        compiled: &compiled,
        ms: vec![Vec::new(); KERNELS.len()],
    };
    let mut rng = Rng::new(args.seed);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(
        &prepared,
        &mut rng,
        seconds,
        false,
        &mut side,
        &mut compiles,
        rep,
    );
    plain.samples.summarize(rep);
    let runs: usize = plain.samples.ms.iter().flatten().map(Vec::len).sum();
    // Latency quantiles over the kernels, each represented by the median
    // of all its runs (all three variants): the pooled tail is set by a
    // few pool runs slowed by whatever else shares the cores, and a
    // single variant's median by how long that lasted.
    let kernel_medians: Vec<f64> = plain
        .samples
        .ms
        .iter()
        .map(|v| median(&v.concat()))
        .collect();
    rep.set("serve_p50_ms", median(&kernel_medians), runs);
    rep.set("serve_p99_ms", quantile(&kernel_medians, 0.99), runs);
    rep.set("serve_rps", runs as f64 / (plain.wall_ms / 1e3), runs);

    if args.trace {
        let traced = measure(
            &prepared,
            &mut rng,
            seconds,
            true,
            &mut side,
            &mut compiles,
            rep,
        );
        traced.samples.summarize(rep);
        let cycles = traced.cycles as f64;
        rep.set(
            "pool.dispatches",
            traced.dispatches as f64 / cycles,
            traced.cycles,
        );
        rep.set(
            "pool.imbalance",
            mean(&traced.imbalance),
            traced.imbalance.len(),
        );
        rep.set(
            "pool.barrier_wait_ms",
            traced.barrier_ms / cycles,
            traced.cycles,
        );
        rep.set(
            "obs.overhead_ms",
            traced.wall_ms / cycles - plain.wall_ms / plain.cycles as f64,
            traced.cycles + plain.cycles,
        );
        let layers = [
            ("machine.orig", traced.variant_ms[0]),
            ("machine.seq", traced.variant_ms[1]),
            ("machine.par", traced.variant_ms[2]),
            ("bench.prepare", traced.prepare_ms),
            ("bench.check", traced.check_ms),
        ];
        rep.notes.push(crate::selftime_note(
            "run-kernels (ms per cycle of 39 runs)",
            traced.wall_ms / cycles,
            &layers.map(|(n, ms)| (n, ms / cycles)),
        ));
    }
    side.finish(rep);
    let medians: Vec<f64> = compiles.ms.iter().map(|s| median(s)).collect();
    let n = compiles.ms.iter().map(Vec::len).sum();
    rep.set("compile_geomean_ms", geomean(&medians), n);
    rep.set(
        "compile_worst_ms",
        medians.iter().copied().fold(0.0, f64::max),
        compiles.ms[0].len(),
    );
    rep.set(
        "peak_rss_mb",
        crate::report::peak_rss_mb("self").unwrap_or(0.0),
        1,
    );
}
