//! `pqsda-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name and unit, then, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer ones).

use pqsda_perfbench::workloads::{run, Outcome, Workload};
use std::process::ExitCode;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_line(out: &Outcome, trace: bool) -> String {
    let metrics = if trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect();
    let correct = out.failed == 0 && out.problems.is_empty();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pqsda-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut lines = Vec::new();
    for &w in &args.workloads {
        let out = run(w, args.seed, args.seconds, args.trace);
        println!(
            "== {} (basis {}, seed {}, trace {}): attempted {}, failed {}",
            w.name(),
            w.basis().name(),
            args.seed,
            args.trace as u8,
            out.attempted,
            out.failed
        );
        for (title, rows) in [
            ("end-to-end", &out.end_to_end),
            ("per-layer", &out.per_layer),
            ("diagnostic", &out.diagnostics),
        ] {
            for (n, v, u) in rows.iter() {
                if title == "diagnostic" && out.per_layer.iter().any(|(p, _, _)| p == n) {
                    continue;
                }
                println!("{title:>10}  {n:<28} {v:>14.4} {u}");
            }
        }
        for (stage, calls, total_ms) in &out.self_time {
            println!(
                "{:>10}  {stage:<28} {calls:>8} calls {total_ms:>12.3} ms",
                "self"
            );
        }
        for p in &out.problems {
            println!("   PROBLEM  {p}");
        }
        lines.push(json_line(&out, args.trace));
    }
    for l in &lines {
        println!("{l}");
    }
    ExitCode::SUCCESS
}
