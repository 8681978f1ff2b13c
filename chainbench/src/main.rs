//! Command line of the benchmark:
//!
//! ```text
//! chainbench --workload <long-flows|short-flows|durable-failover> --seed <n>
//!            --seconds <n> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exit code 2 on bad usage.

use chainbench::bench::{measure_run, run_e2e, run_traced, Prepared};
use chainbench::sys::Fingerprint;
use chainbench::workload::{describe_config, Workload};
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: chainbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut child = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--child" => child = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    // The append-only backend keeps its segment files under the cargo target
    // directory; default it to the one this binary was built into, so every
    // file the benchmark writes stays inside the build tree.
    if std::env::var_os("CARGO_TARGET_DIR").is_none() {
        if let Some(dir) = std::env::current_exe()
            .ok()
            .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        {
            std::env::set_var("CARGO_TARGET_DIR", dir);
        }
    }
    if args.child {
        print!("{}", measure_run(args.workload, args.seed).to_text());
        return ExitCode::SUCCESS;
    }
    let prepared = Prepared::new(args.workload, args.seed);

    let len = prepared.trace.len();
    println!("# host {}", Fingerprint::current().describe());
    println!(
        "# workload={} seed={} packets={} ideal_delivered={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        len,
        prepared.expected.delivered().len(),
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# config {}",
        describe_config(&args.workload.e2e_config(len))
    );
    if args.trace {
        println!(
            "# traced-config {}",
            describe_config(&args.workload.traced_config(len))
        );
    }
    let outcome = if args.trace {
        run_traced(args.workload, args.seconds, &prepared)
    } else {
        run_e2e(args.workload, args.seed, args.seconds, &prepared)
    };
    print!("{}", outcome.table());
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}
