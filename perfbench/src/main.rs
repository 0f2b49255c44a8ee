//! Command-line entry point; see the library docs for the options.

use std::process::ExitCode;

use pipesched_perfbench::harness::Args;

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match pipesched_perfbench::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name} {value} {unit}");
    }
    if args.trace {
        let path = std::path::Path::new("perfbench/out")
            .join(format!("{}-{}.spans.ndjson", args.workload, args.seed));
        match pipesched_perfbench::spans::dump(&path, &report.spans) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\":{{\"value\":{value:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
