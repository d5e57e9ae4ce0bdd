//! The pluto-rs benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <compile-cold|serve-mixed|run-kernels> --seed <n>
//!           --seconds <s> --trace <0|1> --plutod <path> --scratch <dir>
//! perfbench --list-metrics
//! ```
//!
//! With `--trace 0` the last stdout line is the result document with
//! every end-to-end metric; with `--trace 1` the measured phase runs
//! twice, untraced then traced, and the result carries every per-layer
//! metric (including the tracing overhead). `perfbench/run.py` builds
//! this binary and `plutod` and forwards its arguments; README.md in
//! this directory defines every metric.

mod cold;
mod compile;
mod exec;
mod kernels;
mod probe;
mod report;
mod run;
mod serve;
mod stats;

use report::Report;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The `plutod` binary (`serve-mixed`).
    pub plutod: String,
    /// Directory for the daemon's socket.
    pub scratch: String,
}

/// Threads the pool runs `pluto-par` with: all the host offers.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line stating a traced total, its layers' self times, and the
/// explicit remainder, which together sum to the total.
pub fn selftime_note(label: &str, total: f64, layers: &[(&str, f64)]) -> String {
    let sum: f64 = layers.iter().map(|l| l.1).sum();
    let unattributed = total - sum;
    let parts: Vec<String> = layers.iter().map(|(n, v)| format!("{n}={v:.4}")).collect();
    format!(
        "selftime {label}: total={total:.4} {} unattributed={unattributed:.4} sums_to_total={}",
        parts.join(" "),
        (sum + unattributed - total).abs() <= 1e-9 * total.abs().max(1.0)
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        plutod: String::new(),
        scratch: ".".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--plutod" => args.plutod = value()?,
            "--scratch" => args.scratch = value()?,
            "--list-metrics" => {
                list_metrics();
                std::process::exit(0);
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Prints the metric catalog as BENCHMARK.json-shaped JSON lists.
fn list_metrics() {
    let fmt = |(n, u): (&str, &str)| format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"}}");
    let e2e: Vec<String> = report::END_TO_END.iter().map(|&m| fmt(m)).collect();
    let layers = report::per_layer();
    let per: Vec<String> = layers.iter().map(|(n, u)| fmt((n, u))).collect();
    println!(
        "{{\"end_to_end\": [{}], \"per_layer\": [{}]}}",
        e2e.join(", "),
        per.join(", ")
    );
}

/// Facts that must match before two results are compared.
fn meta(args: &Args) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let threads = match args.workload.as_str() {
        "compile-cold" => format!(
            "{{\"compile\": 1, \"dep_analysis\": 1, \"check_par\": {}}}",
            parallelism()
        ),
        "serve-mixed" => format!(
            "{{\"clients\": {c}, \"connections\": {c}, \"check_par\": {}}}",
            parallelism(),
            c = serve::clients()
        ),
        _ => format!("{{\"par\": {}}}", parallelism()),
    };
    format!(
        "{{\"meta\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"available_parallelism\": {}, \"threads\": {threads}, \
         \"engines\": {{\"orig\": \"bytecode\", \"seq\": \"bytecode\", \"par\": \"bytecode\", \
         \"sim\": \"simulated-4-core\"}}, \"kernel_set\": \"{:016x}\", \"tile\": 32, \
         \"git_commit\": {}, \"source_hash\": {}, \"rustc\": {}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        parallelism(),
        kernels::kernel_set_hash(),
        report::json_str(&env("PERFBENCH_GIT_COMMIT")),
        report::json_str(&env("PERFBENCH_SOURCE_HASH")),
        report::json_str(&env("PERFBENCH_RUSTC")),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut rep = Report::default();
    match args.workload.as_str() {
        "compile-cold" => cold::run(&args, &mut rep),
        "serve-mixed" => serve::run(&args, &mut rep),
        "run-kernels" => run::run(&args, &mut rep),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    }
    println!("{}", meta(&args));
    rep.print(args.trace);
}
