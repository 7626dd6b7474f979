//! The long-lived writer/reader benchmark of the P2P database update
//! algorithm. See `README.md` in this directory for the workloads, the
//! metrics and how each layer metric relates to the end-to-end ones.
//!
//! One run: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! builds the workload's network from the seed, runs a fixed sequence of
//! operations on it, checks every result against one computed apart from
//! the program, and prints one JSON line.

pub mod check;
pub mod host;
pub mod inputs;
pub mod metrics;
pub mod trace;
pub mod workload;

use workload::{Run, Size, Workload};

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Run length, in seconds on the reference host (sets the operation
    /// count; see [`size_for`]).
    pub seconds: u64,
    /// Per-layer (traced) mode.
    pub trace: bool,
}

impl Options {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(args: &[String]) -> Result<Options, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(Workload::parse(value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload `{value}` (one of {})", names.join(", "))
                    })?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
                "--seconds" => {
                    let s: u64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?;
                    if s == 0 || s > 3600 {
                        return Err(format!("--seconds must be 1..=3600, got {s}"));
                    }
                    seconds = Some(s)
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown flag `{flag}`")),
            }
        }
        Ok(Options {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// The operation count of a run of `seconds`: whole rounds (one write at
/// each rotating writer, each followed by its reads), as many as the
/// reference host (2 cores) completes in about that time. The count never
/// depends on how fast this host is.
pub fn size_for(workload: Workload, seconds: u64) -> Size {
    // Seconds one round takes on the reference host.
    let (round_secs, size) = match workload {
        Workload::Expander10kSim => (
            10.0,
            Size {
                nodes: 10_000,
                rounds: 0,
                reads_per_write: 3,
                setups: 4,
                records: 0,
            },
        ),
        Workload::Expander10kSharded => (
            6.5,
            Size {
                nodes: 10_000,
                rounds: 0,
                reads_per_write: 2,
                setups: 0,
                records: 0,
            },
        ),
        Workload::DblpSmallworld16 => (
            1.0,
            Size {
                nodes: 16,
                rounds: 0,
                reads_per_write: 1,
                setups: 6,
                records: 30,
            },
        ),
    };
    Size {
        rounds: ((seconds as f64 / round_secs).round() as usize).max(1),
        ..size
    }
}

/// Runs what `opts` asks for and returns the result line and whether every
/// check passed.
pub fn execute(opts: &Options) -> Result<String, String> {
    let size = size_for(opts.workload, opts.seconds);
    execute_sized(opts, &size)
}

/// [`execute`] at an explicit size (the toy-size tests use this).
pub fn execute_sized(opts: &Options, size: &Size) -> Result<String, String> {
    if !opts.trace {
        let run = workload::run(opts.workload, size, opts.seed, false)?;
        report_wrong(&run);
        return Ok(metrics::render(
            run.wrong.is_empty(),
            run.attempted,
            run.failed,
            &metrics::end_to_end(&run),
        ));
    }
    // The traced run repeats the untraced one's operations on a network of
    // its own, set up once each.
    let once = Size { setups: 1, ..*size };
    let plain = workload::run(opts.workload, &once, opts.seed, false)?;
    report_wrong(&plain);
    let traced = workload::run(opts.workload, &once, opts.seed, true)?;
    report_wrong(&traced);
    // On the pool the protocol's message count depends on how the threads
    // interleave, so only the simulator's runs can match message for message.
    let same = match opts.workload {
        Workload::Expander10kSharded => Ok(()),
        _ => same_messages(&plain, &traced),
    };
    if let Err(e) = &same {
        eprintln!("perfbench: {e}");
    }
    Ok(metrics::render(
        plain.wrong.is_empty() && traced.wrong.is_empty() && same.is_ok(),
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        &metrics::per_layer(&traced, &plain),
    ))
}

fn report_wrong(run: &Run) {
    for e in &run.wrong {
        eprintln!("perfbench: wrong result: {e}");
    }
}

/// The traced run must deliver exactly the untraced run's messages, write
/// by write and read by read.
pub fn same_messages(plain: &Run, traced: &Run) -> Result<(), String> {
    let msgs = |r: &Run| -> Vec<u64> { r.writes.iter().chain(&r.reads).map(|o| o.msgs).collect() };
    if msgs(plain) == msgs(traced) {
        Ok(())
    } else {
        Err(format!(
            "traced run delivered {:?} messages, untraced {:?}",
            msgs(traced),
            msgs(plain)
        ))
    }
}
