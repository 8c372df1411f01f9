//! `pgq-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints report lines, then one JSON object as the last line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! the per-layer ones of the traced run. Exits non-zero, printing no
//! result, when the arguments are bad or the run cannot be set up.

use pgq_perfbench::gen::Workload;
use pgq_perfbench::run::{run, Outcome};
use pgq_perfbench::speed::pin_to_one_cpu;
use pgq_perfbench::trace::traced_run;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pgq-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cpu = pin_to_one_cpu();
    println!(
        "workload {} (seed {}, {} s, trace {}): {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.workload.why()
    );
    match cpu {
        Some(cpu) => println!("every thread pinned to core {cpu}"),
        None => println!("core pinning refused: threads run on any core"),
    }
    let outcome = if args.trace {
        traced_run(args.workload, args.seed, args.seconds)
    } else {
        run(args.workload, args.seed, args.seconds)
    };
    match outcome {
        Ok(o) => {
            for line in &o.report {
                println!("{line}");
            }
            println!("{}", result_json(&o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("pgq-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
