//! One source → OpenMP C compile through the library's public entry
//! points, the same steps and options `plutod` runs for a cold request:
//! parse → dependences → search → apply → generate → emit, tile 32,
//! single-threaded dependence analysis.

use pluto_repro::codegen::{emit_c, generate, Ast};
use pluto_repro::frontend::{parse_unit, ParsedUnit};
use pluto_repro::ir::{analyze_dependences_with, DepAnalysisOptions, Program};
use pluto_repro::obs::{ObsSession, Profile};
use pluto_repro::pluto::{find_transformation, Optimizer};
use std::time::Instant;

/// The compile layers the benchmark times, in pipeline order.
pub const LAYERS: [&str; 6] = [
    "frontend.parse",
    "ir.deps",
    "core.search",
    "core.apply",
    "codegen.generate",
    "codegen.emit",
];

/// What one compile produced.
pub struct Compiled {
    pub unit: ParsedUnit,
    pub ast: Ast,
    pub code: String,
}

/// Wall time of one compile: the whole call, and with `spans` on, the
/// time inside each entry point of [`LAYERS`] (same order).
pub struct Timing {
    pub total_ms: f64,
    pub layer_ms: [f64; 6],
}

impl Timing {
    /// Compile time no layer accounts for.
    pub fn unattributed_ms(&self) -> f64 {
        self.total_ms - self.layer_ms.iter().sum::<f64>()
    }
}

/// The optimizer configuration of a default `plutod` compile.
pub fn optimizer() -> Optimizer {
    Optimizer::new().tile_size(32).dep_threads(1)
}

fn dep_options(opt: &Optimizer) -> DepAnalysisOptions {
    DepAnalysisOptions {
        include_input: opt.options.use_input_deps,
        prune: opt.dep_pruning,
        threads: opt.dep_threads,
    }
}

/// Compiles `source` under a fresh session of its own, so no solver
/// cache survives from an earlier compile. With `profile` the session
/// records the program's own counters and histograms and the profile is
/// returned; with `spans` each entry point is timed separately.
pub fn compile(
    source: &str,
    opt: &Optimizer,
    profile: bool,
    spans: bool,
) -> Result<(Compiled, Timing, Option<Profile>), String> {
    let mut builder = ObsSession::builder();
    if profile {
        builder = builder.profile();
    }
    let session = builder.build();
    let start = Instant::now();
    let guard = session.install();
    let mut laps = Laps::new(spans);
    let unit = parse_unit(source).map_err(|e| e.to_string())?;
    laps.lap();
    let prog = &unit.program;
    let deps = analyze_dependences_with(prog, &dep_options(opt));
    laps.lap();
    let found = find_transformation(prog, &deps, &opt.options).map_err(|e| e.to_string())?;
    laps.lap();
    let optimized = opt.apply(prog, deps, found);
    laps.lap();
    let ast = generate(prog, &optimized.result.transform);
    laps.lap();
    let code = emit_c(prog, &ast);
    laps.lap();
    drop(guard);
    let total_ms = crate::stats::ms(start.elapsed());
    let profile = profile.then(|| session.finish_profile());
    Ok((
        Compiled { unit, ast, code },
        Timing {
            total_ms,
            layer_ms: laps.ms,
        },
        profile,
    ))
}

/// Compiles an already-built program (no parse, no emit) to its tiled
/// AST under a fresh session of its own; returns the AST and the wall
/// time in ms.
pub fn compile_program(prog: &Program, opt: &Optimizer) -> Result<(Ast, f64), String> {
    let session = ObsSession::builder().build();
    let start = Instant::now();
    let _guard = session.install();
    let deps = analyze_dependences_with(prog, &dep_options(opt));
    let found = find_transformation(prog, &deps, &opt.options).map_err(|e| e.to_string())?;
    let optimized = opt.apply(prog, deps, found);
    let ast = generate(prog, &optimized.result.transform);
    Ok((ast, crate::stats::ms(start.elapsed())))
}

/// Back-to-back spans: each `lap` closes the span of the next layer.
struct Laps {
    on: bool,
    mark: Instant,
    ms: [f64; 6],
    next: usize,
}

impl Laps {
    fn new(on: bool) -> Laps {
        Laps {
            on,
            mark: Instant::now(),
            ms: [0.0; 6],
            next: 0,
        }
    }

    fn lap(&mut self) {
        if self.on {
            let now = Instant::now();
            self.ms[self.next] = crate::stats::ms(now - self.mark);
            self.mark = now;
        }
        self.next += 1;
    }
}
