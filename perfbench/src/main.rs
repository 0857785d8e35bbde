//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train-window|train-spill|serve-decode|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`) the last line of standard output is a JSON object
//! with the end-to-end metrics; traced (`--trace 1`) it carries the
//! per-layer metrics, after a human-readable report (lines starting `#`).
//! See `perfbench/README.md` for the workloads and what each metric means.

mod context;
mod probes;
mod report;
mod serve;
mod stats;
mod train;
mod workload;

use report::{Outcome, END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 3] = ["train-window", "train-spill", "serve-decode"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_one(name: &str, args: &Args) -> Outcome {
    let pools = match name {
        "serve-decode" => serve::pools(&workload::serve_decode()),
        "train-window" => train::pools(&workload::train_window()),
        _ => train::pools(&workload::train_spill()),
    };
    println!(
        "# workload={name} seed={} seconds={} trace={} cores={} isa={:?} git={} spill_dir_fs={} pools: {pools}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        context::cores(),
        stronghold_tensor::simd::tier(),
        context::git_rev(&context::package_dir().join("..")),
        context::filesystem_of(&std::env::temp_dir()),
    );
    let (seed, secs) = (args.seed, args.seconds);
    match (name, args.trace) {
        ("train-window", false) => train::run(&workload::train_window(), seed, secs),
        ("train-window", true) => train::run_traced(&workload::train_window(), seed, secs),
        ("train-spill", false) => train::run(&workload::train_spill(), seed, secs),
        ("train-spill", true) => train::run_traced(&workload::train_spill(), seed, secs),
        ("serve-decode", false) => serve::run(&workload::serve_decode(), seed, secs),
        (_, _) => serve::run_traced(&workload::serve_decode(), seed, secs),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Spill files go through `std::env::temp_dir()`; point it inside the
    // package so a run writes nothing outside its checkout. Set before any
    // thread starts.
    let out = context::out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("perfbench: cannot create {}: {e}", out.display());
        std::process::exit(1);
    }
    std::env::set_var("TMPDIR", &out);

    let catalogue: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if args.workload != "all" {
        let o = run_one(&args.workload, &args);
        for b in &o.broken {
            println!("# check failed: {b}");
        }
        println!("{}", o.json(catalogue));
        return;
    }
    // Every workload in turn: each one's result on a report line, then the
    // combined verdict (no metrics) as the last line.
    let mut total = Outcome::default();
    for name in WORKLOADS {
        let o = run_one(name, &args);
        for b in &o.broken {
            println!("# check failed: {b}");
        }
        println!("# {name}: {}", o.json(catalogue));
        total.attempted += o.attempted;
        total.failed += o.failed;
        total.broken.extend(o.broken);
    }
    println!("{}", total.json(&[]));
}
