//! Metric catalog, failure accounting, and the result document.

use crate::kernels::KERNELS;
use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported with `--trace 0` by every
/// workload (BENCHMARK.json `end_to_end`, same order).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_rate", "ratio"),
    ("compile_geomean_ms", "ms"),
    ("compile_worst_ms", "ms"),
    ("serve_p50_ms", "ms"),
    ("serve_p99_ms", "ms"),
    ("serve_rps", "1/s"),
    ("exec_orig_ms", "ms"),
    ("exec_seq_ms", "ms"),
    ("exec_par_ms", "ms"),
    ("sim_speedup", "ratio"),
    ("sim_s", "s"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1` by every
/// workload (BENCHMARK.json `per_layer`, same order). A layer a workload
/// never enters reads 0 there.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("frontend.parse_ms", "ms"),
        ("ir.deps_ms", "ms"),
        ("core.search_ms", "ms"),
        ("core.apply_ms", "ms"),
        ("codegen.generate_ms", "ms"),
        ("codegen.emit_ms", "ms"),
        ("compile.unattributed_ms", "ms"),
        ("ir.deps_built", "count"),
        ("ilp.solves", "count"),
        ("ilp.pivots", "count"),
        ("poly.fm_eliminations", "count"),
        ("ilp.cache_hit_ratio", "ratio"),
        ("codegen.loops", "count"),
        ("codegen.c_bytes", "bytes"),
        ("ilp.latency.legality_ms", "ms"),
        ("ilp.latency.bounding_ms", "ms"),
        ("ilp.latency.emptiness_ms", "ms"),
        ("daemon.server_ms.hit", "ms"),
        ("daemon.server_ms.content_hit", "ms"),
        ("daemon.server_ms.miss", "ms"),
        ("daemon.wire_ms", "ms"),
        ("daemon.response_kb", "KiB"),
        ("daemon.stats_ms", "ms"),
        ("daemon.cache_hit_ratio", "ratio"),
        ("daemon.cache_entries", "count"),
        ("daemon.miss_search_ms", "ms"),
        ("daemon.share.hit", "ratio"),
        ("daemon.share.content_hit", "ratio"),
        ("daemon.share.miss", "ratio"),
        ("daemon.share.stats", "ratio"),
        ("machine.lower_ms", "ms"),
        ("machine.mips.orig", "Minst/s"),
        ("machine.mips.seq", "Minst/s"),
        ("machine.mips.par", "Minst/s"),
        ("pool.dispatches", "count"),
        ("pool.imbalance", "ratio"),
        ("pool.barrier_wait_ms", "ms"),
        ("machine.simulate_ms", "ms"),
        ("machine.sim_l2_miss_ratio", "ratio"),
        ("machine.sim_regions", "count"),
        ("obs.overhead_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for k in KERNELS {
        v.push((format!("compile.{}_ms", k.name), "ms"));
    }
    for k in KERNELS {
        for variant in ["orig", "seq", "par"] {
            v.push((format!("exec.{}.{variant}_ms", k.name), "ms"));
        }
    }
    for k in KERNELS {
        v.push((format!("sim.{}.orig_cycles", k.name), "cycles"));
        v.push((format!("sim.{}.pluto_cycles", k.name), "cycles"));
    }
    v
}

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted: compiles, requests, kernel runs, and the
    /// output checks made after the measured phase.
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    values: BTreeMap<String, (f64, usize)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric with the number of samples behind it.
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: usize) {
        self.values.insert(name.into(), (value, samples));
    }

    /// Counts one operation; a failed one is remembered by `what`.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }

    /// Prints the metric table, the failures, and finally the one-line
    /// result document (always the last stdout line).
    pub fn print(mut self, trace: bool) {
        let ok_rate = if self.attempted == 0 {
            0.0
        } else {
            1.0 - self.failed as f64 / self.attempted as f64
        };
        self.set("ok_rate", ok_rate, self.attempted as usize);
        let catalog: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        for note in &self.notes {
            println!("{note}");
        }
        let mut fields = Vec::new();
        let mut finite = true;
        for (name, unit) in &catalog {
            let (value, samples) = match self.values.get(name) {
                Some(&v) => v,
                None if trace => (0.0, 0),
                None => panic!("end-to-end metric `{name}` was not measured"),
            };
            finite &= value.is_finite();
            println!("{name:<36} {value:>16.6} {unit:<8} n={samples}");
            fields.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                if value.is_finite() { value } else { 0.0 },
                json_str(unit)
            ));
        }
        for f in &self.failures {
            println!("FAILED: {f}");
        }
        println!(
            "attempted {} operations, {} failed (error_rate {})",
            self.attempted,
            self.failed,
            1.0 - ok_rate
        );
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0 && finite,
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
    }
}

pub fn json_str(s: &str) -> String {
    pluto_repro::obs::json::escape(s)
}

/// Peak resident set (`VmHWM`) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
