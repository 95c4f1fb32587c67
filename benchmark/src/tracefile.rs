//! `trace-<workload>.json`: the traced run, kept in memory and written
//! once when the workload ends.
//!
//! Phase spans are stored one by one (`id`, `name`, `parent`, `pass`,
//! `rep`, `start_ns`, `end_ns`; offsets from the start of measurement, and
//! spans of one simulation share `pass`/`rep`). Per-event callback spans
//! are aggregated per name into `count`, `total_ns`, `max_ns` and the
//! non-empty log₂ buckets (`[upper_edge_ns, count]`).

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::json::write_str;
use crate::measure::TraceData;
use crate::timed::Callback;

pub fn render(workload: &str, seed: u64, data: &TraceData) -> String {
    let mut out = String::from("{\n  \"workload\": ");
    write_str(&mut out, workload);
    let _ = write!(out, ",\n  \"seed\": {seed},\n  \"spans\": [");
    for (id, (pass, rep, span)) in data.spans.iter().enumerate() {
        // A parent is the span of that name in the same simulation.
        let parent = span.parent.and_then(|name| {
            data.spans
                .iter()
                .position(|(p, r, s)| p == pass && r == rep && s.name == name)
        });
        out.push_str(if id == 0 { "\n    " } else { ",\n    " });
        let _ = write!(out, "{{\"id\": {id}, \"name\": ");
        write_str(&mut out, span.name);
        match parent {
            Some(p) => {
                let _ = write!(out, ", \"parent\": {p}");
            }
            None => out.push_str(", \"parent\": null"),
        }
        let _ = write!(
            out,
            ", \"pass\": {pass}, \"rep\": {rep}, \"start_ns\": {}, \"end_ns\": {}}}",
            span.start_ns, span.end_ns
        );
    }
    out.push_str("\n  ],\n  \"callbacks\": [");
    for (i, c) in Callback::ALL.iter().enumerate() {
        let stats = &data.callbacks[*c as usize];
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        out.push_str("{\"name\": ");
        write_str(&mut out, c.span_name());
        let _ = write!(
            out,
            ", \"parent\": \"runtime.run\", \"count\": {}, \"total_ns\": {}, \"max_ns\": {}, \"log2_buckets\": [",
            stats.count, stats.total_ns, stats.max_ns
        );
        let mut first = true;
        for (b, n) in stats.buckets.iter().enumerate().filter(|(_, n)| **n > 0) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let edge = 1u64.checked_shl(b as u32).unwrap_or(u64::MAX);
            let _ = write!(out, "[{edge}, {n}]");
        }
        out.push_str("]}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Where the trace goes: under the build's target directory, which
/// `run.sh` always sets. `None` (nothing written) outside it.
pub fn path_for(workload: &str) -> Option<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR")?;
    Some(
        PathBuf::from(target)
            .join("benchmark")
            .join(format!("trace-{workload}.json")),
    )
}

pub fn write(workload: &str, seed: u64, data: &TraceData) -> std::io::Result<Option<PathBuf>> {
    let Some(path) = path_for(workload) else {
        return Ok(None);
    };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&path, render(workload, seed, data))?;
    Ok(Some(path))
}
