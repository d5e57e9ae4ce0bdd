//! `compile-cold`: sweeps of the thirteen kernels, source → OpenMP C, in
//! seed-shuffled order. Every compile runs under a session of its own,
//! so none reuses another's solver cache; the schedule cache and the
//! executor are not involved in the measured phase.

use crate::compile::{self, Compiled, LAYERS};
use crate::exec::{seeded_arrays, Prepared};
use crate::kernels::{shuffled_order, KERNELS};
use crate::probe::{Side, SimInput};
use crate::report::Report;
use crate::stats::{geomean, median, quantile, Rng};
use crate::Args;
use pluto_repro::obs::Profile;
use std::time::Instant;

/// A kernel's source and the first compile of it, made during set-up:
/// every measured compile must produce byte-identical C.
struct Reference {
    source: String,
    first: Compiled,
}

/// Parses and compiles every kernel once (a warm-up that also yields the
/// reference outputs), then lowers each at its small size and runs the
/// original schedule for the reference arrays.
fn setup(seed: u64) -> (Vec<Reference>, Vec<Prepared>) {
    let opt = compile::optimizer();
    let mut refs = Vec::new();
    let mut prepared = Vec::new();
    for k in KERNELS {
        let source = k.source();
        let (first, _, _) = compile::compile(&source, &opt, false, false)
            .unwrap_or_else(|e| panic!("{}: compile failed: {e}", k.name));
        let extents = first
            .unit
            .try_extents(k.small)
            .unwrap_or_else(|e| panic!("{}: {e}", k.name));
        prepared.push(Prepared::new(
            &first.unit.program,
            &first.ast,
            k.small,
            seeded_arrays(extents, seed),
        ));
        refs.push(Reference { source, first });
    }
    (refs, prepared)
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    /// Compile wall times per kernel.
    per_kernel: Vec<Vec<f64>>,
    all: Vec<f64>,
    sweeps: usize,
    /// Wall time of the sweeps themselves (side steps excluded).
    wall_s: f64,
    /// Traced phases only: summed layer spans and remainders.
    layer_ms: [f64; 6],
    unattributed_ms: f64,
    /// Traced phases only: the first profile of each kernel.
    profiles: Vec<Option<Profile>>,
    hist_ms: [f64; 3],
}

impl Phase {
    /// Mean compile time of one sweep (all thirteen kernels).
    fn sweep_ms(&self) -> f64 {
        self.all.iter().sum::<f64>() / self.sweeps.max(1) as f64
    }
}

const HISTS: [&str; 3] = [
    "ilp.latency.legality",
    "ilp.latency.bounding",
    "ilp.latency.emptiness",
];

/// Whole sweeps, each followed by a side step, until `seconds` have
/// passed.
fn measure(
    refs: &[Reference],
    rng: &mut Rng,
    seconds: f64,
    traced: bool,
    side: &mut Side,
    rep: &mut Report,
) -> Phase {
    let opt = compile::optimizer();
    let mut ph = Phase {
        per_kernel: vec![Vec::new(); KERNELS.len()],
        profiles: vec![None; KERNELS.len()],
        ..Phase::default()
    };
    let phase = Instant::now();
    while ph.sweeps == 0 || phase.elapsed().as_secs_f64() < seconds {
        let start = Instant::now();
        for k in shuffled_order(rng) {
            let name = KERNELS[k].name;
            let (out, t, profile) = match compile::compile(&refs[k].source, &opt, traced, traced) {
                Ok(r) => r,
                Err(e) => {
                    rep.op(false, || format!("{name}: compile failed: {e}"));
                    continue;
                }
            };
            rep.op(out.code == refs[k].first.code, || {
                format!("{name}: generated C differs from the first compile")
            });
            ph.per_kernel[k].push(t.total_ms);
            ph.all.push(t.total_ms);
            if let Some(p) = profile {
                for (sum, ms) in ph.layer_ms.iter_mut().zip(t.layer_ms) {
                    *sum += ms;
                }
                ph.unattributed_ms += t.unattributed_ms();
                for (sum, h) in ph.hist_ms.iter_mut().zip(HISTS) {
                    *sum += p.hist(h).map_or(0, |h| h.sum_ns) as f64 / 1e6;
                }
                let misses = p.counter("ilp.cache_misses");
                match &ph.profiles[k] {
                    Some(first) => rep.op(first.counter("ilp.cache_misses") == misses, || {
                        format!("{name}: ilp.cache_misses differs between sweeps (a warm compile)")
                    }),
                    None => ph.profiles[k] = Some(p),
                }
            }
        }
        ph.wall_s += start.elapsed().as_secs_f64();
        ph.sweeps += 1;
        side.step(rep);
    }
    ph
}

pub fn run(args: &Args, rep: &mut Report) {
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..crate::SETUPS {
        state.take();
        let t = Instant::now();
        state = Some(setup(args.seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (refs, prepared) = state.expect("at least one set-up");
    rep.set("setup_s", median(&setup_s), setup_s.len());

    let inputs: Vec<SimInput> = refs
        .iter()
        .zip(KERNELS)
        .zip(&prepared)
        .map(|((r, k), p)| SimInput {
            prog: &r.first.unit.program,
            ast: &r.first.ast,
            params: k.small,
            initial: p.initial.clone(),
        })
        .collect();
    let mut side = Side::new(&prepared, &inputs);
    let mut rng = Rng::new(args.seed);
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = measure(&refs, &mut rng, seconds, false, &mut side, rep);
    let medians: Vec<f64> = plain.per_kernel.iter().map(|s| median(s)).collect();
    rep.set("compile_geomean_ms", geomean(&medians), plain.all.len());
    rep.set(
        "compile_worst_ms",
        medians.iter().copied().fold(0.0, f64::max),
        plain.sweeps,
    );
    // Latency quantiles over the kernels, each represented by its median:
    // the pooled samples are a mixture of 13 fixed compiles, whose
    // quantiles jump between neighbouring kernels.
    rep.set("serve_p50_ms", median(&medians), plain.all.len());
    rep.set("serve_p99_ms", quantile(&medians, 0.99), plain.all.len());
    rep.set(
        "serve_rps",
        plain.all.len() as f64 / plain.wall_s,
        plain.all.len(),
    );
    for (k, m) in medians.iter().enumerate() {
        rep.set(
            format!("compile.{}_ms", KERNELS[k].name),
            *m,
            plain.per_kernel[k].len(),
        );
    }

    if args.trace {
        let traced = measure(&refs, &mut rng, seconds, true, &mut side, rep);
        report_layers(&traced, rep);
        rep.set(
            "obs.overhead_ms",
            traced.sweep_ms() - plain.sweep_ms(),
            traced.sweeps + plain.sweeps,
        );
        // The per-kernel rows of a traced run come from the traced phase.
        for (k, s) in traced.per_kernel.iter().enumerate() {
            rep.set(
                format!("compile.{}_ms", KERNELS[k].name),
                median(s),
                s.len(),
            );
        }
    }
    side.finish(rep);
    rep.set(
        "codegen.c_bytes",
        refs.iter().map(|r| r.first.code.len() as f64).sum(),
        refs.len(),
    );
    rep.set(
        "peak_rss_mb",
        crate::report::peak_rss_mb("self").unwrap_or(0.0),
        1,
    );
}

/// Per-sweep layer self times, the program's own counters and
/// histograms, and the check that the layers plus the remainder add up
/// to the traced compile time.
fn report_layers(ph: &Phase, rep: &mut Report) {
    let sweeps = ph.sweeps.max(1) as f64;
    let mut layers = Vec::new();
    for (i, layer) in LAYERS.iter().enumerate() {
        rep.set(format!("{layer}_ms"), ph.layer_ms[i] / sweeps, ph.all.len());
        layers.push((*layer, ph.layer_ms[i] / sweeps));
    }
    rep.set(
        "compile.unattributed_ms",
        ph.unattributed_ms / sweeps,
        ph.all.len(),
    );
    rep.notes.push(crate::selftime_note(
        "compile-cold (ms per sweep of 13 compiles)",
        ph.sweep_ms(),
        &layers,
    ));
    rep.notes.push(
        "note: ilp.latency.legality/bounding time Fourier-Motzkin projection inside \
         core.search; they nest in it and are never added to its self time"
            .to_string(),
    );
    for (i, h) in HISTS.iter().enumerate() {
        rep.set(format!("{h}_ms"), ph.hist_ms[i] / sweeps, ph.all.len());
    }
    let profiles: Vec<&Profile> = ph.profiles.iter().flatten().collect();
    let total_of = |c: &str| -> f64 {
        profiles
            .iter()
            .map(|p| p.counter(c).unwrap_or(0) as f64)
            .sum()
    };
    for c in [
        "ir.deps_built",
        "ilp.solves",
        "ilp.pivots",
        "poly.fm_eliminations",
        "codegen.loops",
    ] {
        rep.set(c, total_of(c), profiles.len());
    }
    let (hits, misses) = (total_of("ilp.cache_hits"), total_of("ilp.cache_misses"));
    rep.set(
        "ilp.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        profiles.len(),
    );
}
