//! `asura-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics untraced, the per-layer metrics traced. The line
//! before it carries the run's work and physics counts. A human-readable
//! summary goes to standard error.

#![forbid(unsafe_code)]

use asura_benchmark::inputs::{Size, Workload};
use asura_benchmark::report::{self, END_TO_END, PER_LAYER};
use asura_benchmark::run::{self, Params};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: asura-benchmark --workload <galaxy|sn_surrogate|sn_block|galaxy_dist> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Params, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err("--seconds must be within 0..=600".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Params {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        size: Size::Full,
        tmp_dir: PathBuf::from(".bench_tmp").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run::run(&params);
    let catalog: &[(&str, &str)] = if params.trace {
        &PER_LAYER
    } else {
        &END_TO_END
    };
    let value = |name: &str| out.metrics.get(name).copied().unwrap_or(0.0);

    eprintln!(
        "{} seed {} trace {}: {} episode(s), {} failed (failed_frac {:.3}), counts repeat: {}",
        params.workload.name(),
        params.seed,
        params.trace as u8,
        out.episodes,
        out.checks.failed,
        out.checks.failed_frac(),
        out.counts_repeat
    );
    let tts: Vec<String> = out.episode_tts.iter().map(|t| format!("{t:.3}")).collect();
    eprintln!("  episode time to solution [s]: {}", tts.join(" "));
    for f in &out.checks.failures {
        eprintln!("  check failed: {f}");
    }
    for (name, unit) in catalog {
        eprintln!("  {name:<34} {:>14.6} {unit}", value(name));
    }
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"episodes\": {}, \"step_samples\": {}, \
         \"counts_repeat\": {}, \"failed_frac\": {}, \"energy_err\": {}, \"step_ms_p90\": {}, \
         \"counts\": {}, \"failures\": {}}}",
        params.workload.name(),
        params.seed,
        out.episodes,
        out.step_samples,
        out.counts_repeat,
        report::num(out.checks.failed_frac()),
        out.energy_err.map_or("null".into(), report::num),
        out.step_ms_p90.map_or("null".into(), report::num),
        report::counts_object(&out.counts.named()),
        report::strings_array(&out.checks.failures),
    );
    println!("{}", report::result_line(&out.checks, catalog, value));
    ExitCode::SUCCESS
}
