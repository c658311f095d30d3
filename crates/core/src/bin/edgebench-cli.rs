//! Command-line runner for the experiment registry.
//!
//! ```text
//! edgebench-cli list                  # list experiment ids
//! edgebench-cli run fig7              # run one experiment
//! edgebench-cli run all               # run every experiment (default)
//! edgebench-cli run all --jobs 4      # ... on 4 worker threads
//! edgebench-cli run all --jobs 0      # ... on all available cores
//! edgebench-cli summary resnet-50     # keras-style layer table for a model
//! edgebench-cli dot mobilenet-v2      # graphviz DOT of a model
//! edgebench-cli csv fig7              # one experiment as CSV
//! edgebench-cli infer --model cifarnet --batch 8 --threads 4
//!                                     # real tensor inference on the CPU backend
//! edgebench-cli resilience --dropout 0.002 --frames 300
//!                                     # fault-injected pipeline run
//! edgebench-cli resilience --seed 7 --link-loss 0.02 --events
//!                                     # ... printing the replayable event log
//! edgebench-cli serve --devices rpi3,jetson-nano,jetson-tx2 --rate 60
//!                                     # fleet serving simulation
//! edgebench-cli serve --policy rr --batch-max 1 --trace burst --csv
//!                                     # ... as byte-stable CSV
//! edgebench-cli serve --straggler 0.05,6 --hedge-ms 2 --retry-budget 10 \
//!     --breaker --ladder --events     # full resilience layer + event log
//! edgebench-cli geo --requests 10000 --jobs 4
//!                                     # multi-region diurnal serving with
//!                                     # autoscaling, WAN spillover, carbon
//! edgebench-cli geo --no-autoscale --csv
//!                                     # ... always-on fleet as byte-stable CSV
//! edgebench-cli runtime --frames 300 --rate 60 --sentry
//!                                     # zero-copy pipeline loopback, sentry mode
//! edgebench-cli runtime --procs --ring-capacity 4 --drop-oldest
//!                                     # capture/preprocess/inference/gateway as
//!                                     # four OS processes over mmap rings
//! ```
//!
//! Reports are printed in registry order for every `--jobs` value; the flag
//! only changes wall-clock time, never output. The `resilience` and `serve`
//! commands are seed-deterministic: identical flags replay identical runs.
//!
//! Each subcommand declares its flags once, as a table of [`Flag`] rows
//! built from shared validators; one generic [`parse`] runs every table,
//! and the usage line is rendered from the same rows. Argument errors are
//! typed ([`CliError`]): every malformed invocation prints what was wrong
//! plus the command's usage line and exits non-zero.

use edgebench::experiments;
use edgebench::runtime::{
    self, DropPolicy, ExecMode, RuntimeConfig, SentryConfig, SuperviseConfig,
};
use edgebench::sdc;
use edgebench::serve::{
    geo, BreakerConfig, Fleet, ReplicaSpec, RetryBudgetConfig, RoutePolicy, ServeConfig, TraceFile,
    Traffic,
};
use edgebench_devices::faults::{
    ChaosPlan, FaultProfile, MemoryFaultModel, ResilientPipeline, RetryPolicy,
};
use edgebench_devices::offload::Link;
use edgebench_devices::Device;
use edgebench_graph::viz;
use edgebench_measure::EventLog;
use edgebench_models::Model;
use edgebench_tensor::{
    ExecError, Executor, GuardConfig, KernelKind, Precision, PreparedExecutor, Tensor,
};
use std::env;
use std::fmt;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

/// A typed CLI argument error. Rendering one tells the user what was
/// wrong with which flag; the command wrapper appends its usage line and
/// the process exits non-zero.
#[derive(Debug, Clone, PartialEq)]
enum CliError {
    /// A flag that needs a value was last on the line.
    MissingValue {
        /// The flag, e.g. `--rate`.
        flag: String,
    },
    /// A flag value failed to parse or was out of range.
    Invalid {
        /// The flag, e.g. `--dropout`.
        flag: String,
        /// The offending value as typed.
        value: String,
        /// What the flag expects, e.g. `a probability in [0, 1]`.
        expect: &'static str,
    },
    /// A flag the command does not know.
    UnknownFlag {
        /// The subcommand, e.g. `serve`.
        command: &'static str,
        /// The unknown flag as typed.
        flag: String,
    },
    /// Two flags (or a flag and a default) that contradict each other.
    Conflict {
        /// Human-readable description of the contradiction.
        message: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue { flag } => write!(f, "{flag} expects a value"),
            CliError::Invalid {
                flag,
                value,
                expect,
            } => write!(f, "{flag} got '{value}', expected {expect}"),
            CliError::UnknownFlag { command, flag } => {
                write!(f, "unknown {command} flag '{flag}'")
            }
            CliError::Conflict { message } => write!(f, "{message}"),
        }
    }
}

impl CliError {
    fn invalid(flag: &str, value: &str, expect: &'static str) -> CliError {
        CliError::Invalid {
            flag: flag.to_string(),
            value: value.to_string(),
            expect,
        }
    }

    fn conflict(message: &str) -> CliError {
        CliError::Conflict {
            message: message.to_string(),
        }
    }
}

/// What a flag expects, e.g. `a positive rate in req/s`. Validators and
/// setters fail with it; [`parse`] adds the flag and the value to make a
/// [`CliError::Invalid`].
type Expect = &'static str;

/// One row of a subcommand's flag table.
struct Flag<R> {
    /// The flag as typed, e.g. `--rate`.
    name: &'static str,
    /// The value placeholder shown in the usage line; empty for a switch.
    value: &'static str,
    /// Validates the value (`""` for a switch) and writes it into the run.
    set: fn(&mut R, &str) -> Result<(), Expect>,
}

/// Declares one [`Flag`] row: `flag!(name, placeholder, |run, value| assignment)`.
/// The assignment may use `?` on a validator.
macro_rules! flag {
    ($name:literal, $value:literal, |$r:ident, $v:tt| $body:expr) => {
        Flag {
            name: $name,
            value: $value,
            set: |$r, $v| {
                $body;
                Ok(())
            },
        }
    };
}

/// A subcommand: its defaults, its flag table, and its cross-flag rules.
trait Command: Sized + 'static {
    /// The subcommand, e.g. `serve`.
    const NAME: &'static str;
    /// Every flag the subcommand accepts, in usage order.
    const FLAGS: &'static [Flag<Self>];
    /// The run with no flags given.
    fn defaults() -> Self;
    /// Checks the rules that span several flags, once every flag is set.
    fn finish(self) -> Result<Self, CliError> {
        Ok(self)
    }
}

/// Parses `args` against `C`'s flag table, then applies its cross-flag
/// rules.
fn parse<C: Command>(args: &[String]) -> Result<C, CliError> {
    let mut run = C::defaults();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let Some(flag) = C::FLAGS.iter().find(|f| f.name == arg) else {
            return Err(CliError::UnknownFlag {
                command: C::NAME,
                flag: arg.clone(),
            });
        };
        let value = if flag.value.is_empty() {
            ""
        } else {
            args.next()
                .ok_or_else(|| CliError::MissingValue { flag: arg.clone() })?
        };
        (flag.set)(&mut run, value)
            .map_err(|expect| CliError::invalid(flag.name, value, expect))?;
    }
    run.finish()
}

/// `C`'s usage line, rendered from its flag table.
fn usage<C: Command>() -> String {
    let flags: Vec<String> = C::FLAGS
        .iter()
        .map(|f| match f.value {
            "" => format!("[{}]", f.name),
            value => format!("[{} {value}]", f.name),
        })
        .collect();
    format!("usage: edgebench-cli {} {}", C::NAME, flags.join(" "))
}

/// Parses `args` for `C`, or prints the error and the usage line.
fn parse_or_usage<C: Command>(args: &[String]) -> Option<C> {
    parse(args)
        .map_err(|e| {
            eprintln!("{e}");
            eprintln!("{}", usage::<C>());
        })
        .ok()
}

fn num<T: FromStr>(v: &str, expect: Expect) -> Result<T, Expect> {
    v.parse().map_err(|_| expect)
}

/// A strictly positive integer.
fn pos_int<T: FromStr + Default + PartialEq>(v: &str, expect: Expect) -> Result<T, Expect> {
    let n: T = num(v, expect)?;
    if n == T::default() {
        Err(expect)
    } else {
        Ok(n)
    }
}

/// An integer no greater than `max`.
fn up_to<T: FromStr + PartialOrd>(v: &str, max: T, expect: Expect) -> Result<T, Expect> {
    let n: T = num(v, expect)?;
    if n <= max {
        Ok(n)
    } else {
        Err(expect)
    }
}

/// A power of two (so never zero).
fn pow2(v: &str, expect: Expect) -> Result<usize, Expect> {
    let n: usize = num(v, expect)?;
    if n.is_power_of_two() {
        Ok(n)
    } else {
        Err(expect)
    }
}

/// A finite float accepted by `ok`; NaN and the infinities never are.
fn finite(v: &str, expect: Expect, ok: impl Fn(f64) -> bool) -> Result<f64, Expect> {
    let x: f64 = num(v, expect)?;
    if x.is_finite() && ok(x) {
        Ok(x)
    } else {
        Err(expect)
    }
}

fn pos_f64(v: &str, expect: Expect) -> Result<f64, Expect> {
    finite(v, expect, |x| x > 0.0)
}

fn nonneg_f64(v: &str, expect: Expect) -> Result<f64, Expect> {
    finite(v, expect, |x| x >= 0.0)
}

fn prob(v: &str) -> Result<f64, Expect> {
    finite(v, "a probability in [0, 1]", |p| (0.0..=1.0).contains(&p))
}

fn seed(v: &str) -> Result<u64, Expect> {
    num(v, "an integer seed")
}

fn model(v: &str) -> Result<Model, Expect> {
    Model::from_name(v).ok_or("a known model (see `edgebench-cli summary`)")
}

fn device(v: &str) -> Result<Device, Expect> {
    Device::from_name(v).ok_or("a known device")
}

fn device_list(v: &str) -> Result<Vec<Device>, Expect> {
    v.split(',')
        .map(Device::from_name)
        .collect::<Option<_>>()
        .ok_or("a comma-separated list of known devices")
}

fn path(v: &str) -> Result<PathBuf, Expect> {
    if v.is_empty() {
        Err("a file path")
    } else {
        Ok(PathBuf::from(v))
    }
}

/// The value `v` names among `choices`.
fn one_of<T: Copy>(v: &str, choices: &[(&str, T)], expect: Expect) -> Result<T, Expect> {
    choices
        .iter()
        .find(|(name, _)| *name == v)
        .map(|&(_, t)| t)
        .ok_or(expect)
}

/// A traffic trace kind [`Traffic::from_flag`] knows.
fn trace(v: &str) -> Result<String, Expect> {
    Traffic::from_flag(v, 1.0, 0)
        .map(|_| v.to_string())
        .ok_or("one of steady, poisson, diurnal, burst")
}

fn with_model(name: Option<&str>, f: impl Fn(&edgebench_graph::Graph) -> String) -> ExitCode {
    match name.and_then(Model::from_name) {
        Some(m) => {
            print!("{}", f(&m.build()));
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown model; one of:");
            for m in Model::all() {
                eprintln!("  {m}");
            }
            ExitCode::FAILURE
        }
    }
}

/// Extracts `--jobs N` / `--jobs=N` from `args` (any position), returning
/// the worker count.
fn take_jobs_flag(args: &mut Vec<String>) -> Result<usize, CliError> {
    let jobs =
        |v: &str| num(v, "a non-negative integer").map_err(|e| CliError::invalid("--jobs", v, e));
    let mut n = 1usize;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--jobs" {
            let value = args.get(i + 1).ok_or_else(|| CliError::MissingValue {
                flag: "--jobs".to_string(),
            })?;
            n = jobs(value)?;
            args.drain(i..i + 2);
        } else if let Some(value) = args[i].strip_prefix("--jobs=") {
            n = jobs(value)?;
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(n)
}

/// Everything the `resilience` subcommand needs to run, parsed and
/// validated.
#[derive(Debug, PartialEq)]
struct ResilienceRun {
    model: Model,
    device: Device,
    stages: usize,
    frames: usize,
    seed: u64,
    dropout: f64,
    link_loss: f64,
    thermal: bool,
    policy: RetryPolicy,
    show_events: bool,
}

impl Command for ResilienceRun {
    const NAME: &'static str = "resilience";
    const FLAGS: &'static [Flag<Self>] = &[
        flag!("--model", "M", |r, v| r.model = model(v)?),
        flag!("--device", "D", |r, v| r.device = device(v)?),
        flag!("--stages", "N", |r, v| r.stages =
            pos_int(v, "a positive pipeline depth")?),
        flag!("--frames", "N", |r, v| r.frames = num(v, "a frame count")?),
        flag!("--seed", "S", |r, v| r.seed = seed(v)?),
        flag!("--dropout", "P", |r, v| r.dropout = prob(v)?),
        flag!("--link-loss", "P", |r, v| r.link_loss = prob(v)?),
        flag!("--thermal", "", |r, _| r.thermal = true),
        flag!("--no-repartition", "", |r, _| r.policy =
            r.policy.without_repartition()),
        flag!("--events", "", |r, _| r.show_events = true),
    ];

    fn defaults() -> Self {
        ResilienceRun {
            model: Model::MobileNetV2,
            device: Device::RaspberryPi3,
            stages: 4,
            frames: 300,
            seed: 42,
            dropout: 0.0,
            link_loss: 0.0,
            thermal: false,
            policy: RetryPolicy::default(),
            show_events: false,
        }
    }
}

/// Runs one fault-injected pipeline simulation from parsed flags.
fn run_resilience(args: &[String]) -> ExitCode {
    let Some(run) = parse_or_usage::<ResilienceRun>(args) else {
        return ExitCode::FAILURE;
    };
    let lan = Link {
        uplink_mbps: 90.0,
        downlink_mbps: 90.0,
        rtt_s: 0.002,
    };
    let profile = FaultProfile::none(run.seed)
        .with_device_dropout(run.dropout)
        .with_link_loss(run.link_loss)
        .with_thermal(run.thermal);
    let g = run.model.build();
    let rep = match ResilientPipeline::new(&g, run.device, lan, run.stages, profile)
        .with_policy(run.policy)
        .run(run.frames)
    {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!(
                "cannot plan {} over {}x {}: {e}",
                run.model,
                run.stages,
                run.device.name()
            );
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{} over {}x {} | seed {} | dropout {} | link-loss {}{}{}",
        run.model,
        run.stages,
        run.device.name(),
        run.seed,
        run.dropout,
        run.link_loss,
        if run.thermal { " | thermal" } else { "" },
        if run.policy.repartition {
            ""
        } else {
            " | fail-stop"
        },
    );
    println!(
        "frames: {}/{} completed, {} dropped | throughput {:.2} fps | mean latency {:.1} ms",
        rep.frames_completed,
        rep.frames_attempted,
        rep.frames_dropped,
        rep.throughput_fps(),
        rep.mean_latency_s * 1e3,
    );
    println!(
        "devices lost: {} | repartitions: {} | retries: {} | mean recovery {:.1} ms | final stages: {}",
        rep.devices_lost,
        rep.repartitions,
        rep.retries,
        rep.mean_recovery_s() * 1e3,
        rep.final_stages,
    );
    if run.show_events {
        print!("{}", EventLog::from_fault_events(&rep.events).to_csv());
    }
    ExitCode::SUCCESS
}

/// Everything the `infer` subcommand needs to run, parsed and validated.
#[derive(Debug, PartialEq)]
struct InferRun {
    model: Model,
    batch: usize,
    threads: usize,
    precision: Precision,
    iters: usize,
    seed: u64,
    sparsity: f32,
    kernel: KernelKind,
    /// Seeded bit-flip rate, flips per byte per inference (0 = off).
    flip_rate: f64,
    /// Seed of the bit-flip campaign's fault streams.
    flip_seed: u64,
    /// Arm the integrity guards (checksum scrubbing, activation
    /// envelopes, retry-once recovery).
    guards: bool,
}

/// The most intra-op workers `infer --threads` accepts; `0` still means
/// all cores.
const MAX_THREADS: usize = 1024;

impl Command for InferRun {
    const NAME: &'static str = "infer";
    const FLAGS: &'static [Flag<Self>] = &[
        flag!("--model", "M", |r, v| r.model = model(v)?),
        flag!("--batch", "N", |r, v| r.batch =
            pos_int(v, "a positive batch size")?),
        flag!("--threads", "N", |r, v| r.threads = up_to(
            v,
            MAX_THREADS,
            "an intra-op worker count up to 1024 (0 = all cores)"
        )?),
        flag!("--precision", "f32|f16|int8", |r, v| r.precision = one_of(
            v,
            &[
                ("f32", Precision::F32),
                ("f16", Precision::F16),
                ("int8", Precision::Int8)
            ],
            "one of f32, f16, int8"
        )?),
        flag!("--iters", "N", |r, v| r.iters =
            pos_int(v, "a positive iteration count")?),
        flag!("--seed", "S", |r, v| r.seed = seed(v)?),
        flag!("--sparsity", "P", |r, v| r.sparsity = prob(v)? as f32),
        flag!("--kernel", "auto|scalar", |r, v| r.kernel =
            KernelKind::from_name(v).ok_or("one of auto, scalar")?),
        flag!("--flip-rate", "P", |r, v| r.flip_rate = prob(v)?),
        flag!("--flip-seed", "S", |r, v| r.flip_seed = seed(v)?),
        flag!("--guards", "", |r, _| r.guards = true),
    ];

    fn defaults() -> Self {
        InferRun {
            model: Model::CifarNet,
            batch: 1,
            threads: 1,
            precision: Precision::F32,
            iters: 10,
            seed: 42,
            sparsity: 0.0,
            kernel: KernelKind::Auto,
            flip_rate: 0.0,
            flip_seed: 0x5dc,
            guards: false,
        }
    }
}

/// Runs real tensor inference on the CPU backend and reports throughput.
///
/// One warmup pass populates the prepared executor's arena; the timed
/// passes then run allocation-free. The output digest is printed so users
/// can confirm that `--threads` and `--kernel` never change a single
/// output byte, and so a corrupted run (`--flip-rate` > 0, no guards) has
/// a clean baseline to diff against.
fn run_infer(args: &[String]) -> ExitCode {
    let Some(run) = parse_or_usage::<InferRun>(args) else {
        return ExitCode::FAILURE;
    };
    let g = match run.model.build().with_batch(run.batch) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("cannot rebatch {} to {}: {e}", run.model, run.batch);
            return ExitCode::FAILURE;
        }
    };
    let input = g.node(g.input_ids()[0]);
    let x = match Tensor::try_random(input.output_shape().clone(), run.seed ^ 1) {
        Ok(x) => x,
        Err(_) => {
            let e = ExecError::OutOfMemory {
                node: input.name().to_string(),
                bytes: input
                    .output_shape()
                    .num_elements()
                    .saturating_mul(std::mem::size_of::<f32>()),
            };
            eprintln!("cannot build the input: {e}");
            return ExitCode::FAILURE;
        }
    };
    let exec = Executor::new(&g)
        .with_seed(run.seed)
        .with_precision(run.precision)
        .with_weight_sparsity(run.sparsity)
        .with_intra_op_threads(run.threads)
        .with_kernel(run.kernel)
        .prepare();
    let exec = match exec {
        Ok(e) => e,
        Err(e) => {
            eprintln!("prepare failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if run.flip_rate > 0.0 || run.guards {
        return run_infer_sdc(&run, exec, &x);
    }
    let (out, stats) = match exec.run_observed(&x, &mut |_, _| Ok(())) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("inference failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut y = out.clone();
    let t0 = std::time::Instant::now();
    for _ in 0..run.iters {
        if let Err(e) = exec.run_into(x.shape().dims(), x.data(), &mut y, &mut |_, _| Ok(())) {
            eprintln!("inference failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let elapsed = t0.elapsed();
    let per_iter = elapsed.as_secs_f64() / run.iters as f64;
    let checksum = edgebench_tensor::integrity::checksum_f32(out.data());
    println!(
        "{} | batch {} | {:?} | {} intra-op thread(s) | sparsity {} | kernel {}",
        run.model,
        run.batch,
        run.precision,
        edgebench_tensor::pool::effective_threads(run.threads),
        run.sparsity,
        edgebench_tensor::simd::resolve(run.kernel).name(),
    );
    println!(
        "latency {:.3} ms/batch | throughput {:.1} img/s | peak live {:.1} KiB | buffers {:.1} KiB | {} ops",
        per_iter * 1e3,
        run.batch as f64 / per_iter,
        stats.peak_live_bytes as f64 / 1024.0,
        stats.buffer_bytes as f64 / 1024.0,
        stats.ops_executed,
    );
    println!("output checksum {checksum:016x}");
    ExitCode::SUCCESS
}

/// Runs the seeded bit-flip campaign behind `infer --flip-rate`: weight
/// flips persist across iterations (repaired only when `--guards` arms
/// the scrubbing), activation flips are transient. Every printed count is
/// a pure function of the flags, so identical invocations replay
/// identical campaigns.
fn run_infer_sdc(run: &InferRun, exec: PreparedExecutor<'_>, x: &Tensor) -> ExitCode {
    let wf = MemoryFaultModel::new(run.flip_seed, run.flip_rate);
    let af = MemoryFaultModel::new(run.flip_seed ^ 0xa5a5, run.flip_rate);
    println!(
        "{} | batch {} | {:?} | flip rate {:e}/byte/inference | seed {} | guards {}",
        run.model,
        run.batch,
        run.precision,
        run.flip_rate,
        run.flip_seed,
        if run.guards { "on" } else { "off" },
    );
    // Two clean inputs calibrate the guards' activation envelopes.
    let cal: Vec<Tensor> = (0..2)
        .map(|i| Tensor::random(x.shape().clone(), run.seed ^ (0x100 + i)))
        .collect();
    let guards = run.guards.then_some((GuardConfig::default(), &cal[..]));
    let (mut served, mut refused, mut checksum) = (0u64, 0u64, 0u64);
    // The clock starts at the first inference, after any calibration.
    let mut t0 = None;
    let campaign = sdc::run_campaign(
        &wf,
        &af,
        exec,
        guards,
        run.iters,
        |_| {
            t0.get_or_insert_with(std::time::Instant::now);
            x
        },
        |_, out| match out {
            Ok(y) => {
                served += 1;
                checksum = edgebench_tensor::integrity::checksum_f32(y.data());
            }
            Err(_) => refused += 1,
        },
    );
    let c = match campaign {
        Ok(c) => c,
        Err(e) => {
            eprintln!("inference failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = t0.map_or(0.0, |t0| t0.elapsed().as_secs_f64());
    println!(
        "latency {:.3} ms/batch | flips injected: {} weight, {} activation",
        elapsed / run.iters as f64 * 1e3,
        c.weight_flips,
        c.act_flips,
    );
    if run.guards {
        let s = c.guard;
        println!(
            "served {served} | refused {refused} | scrubs {} | checksum mismatches {} | \
             repairs {} ({} bytes rewritten) | guard trips {} | retries {} | recovered {}",
            s.scrubs,
            s.checksum_mismatches,
            s.repairs,
            s.repaired_bytes,
            s.guard_trips,
            s.retries,
            s.recovered,
        );
    } else {
        println!(
            "final output checksum {checksum:016x} (corruption accumulates unrepaired; \
             compare against --flip-rate 0)"
        );
    }
    ExitCode::SUCCESS
}

/// Everything the `serve` subcommand needs to run, parsed and validated.
#[derive(Debug, PartialEq)]
struct ServeRun {
    model: Model,
    devices: Vec<Device>,
    replicas: usize,
    rate_hz: f64,
    trace: String,
    frames: usize,
    csv: bool,
    show_events: bool,
    /// `--batch-delay-ms` was given (it conflicts with `--batch-max 1`).
    delay_set: bool,
    cfg: ServeConfig,
}

/// `--straggler P,FACTOR`: a probability and an inflation factor >= 1.
fn straggler(v: &str) -> Result<(f64, f64), Expect> {
    const EXPECT: Expect = "P,FACTOR (probability, inflation >= 1)";
    let (p, factor) = v.split_once(',').ok_or(EXPECT)?;
    Ok((prob(p)?, finite(factor, EXPECT, |f| f >= 1.0)?))
}

impl Command for ServeRun {
    const NAME: &'static str = "serve";
    const FLAGS: &'static [Flag<Self>] = &[
        flag!("--model", "M", |r, v| r.model = model(v)?),
        flag!("--devices", "D1,D2,..", |r, v| r.devices = device_list(v)?),
        flag!("--replicas", "N", |r, v| r.replicas =
            pos_int(v, "a positive replica count")?),
        flag!("--rate", "HZ", |r, v| r.rate_hz =
            pos_f64(v, "a positive rate in req/s")?),
        flag!("--trace", "steady|poisson|diurnal|burst", |r, v| r.trace =
            trace(v)?),
        flag!("--slo-ms", "MS", |r, v| r.cfg.slo_ms =
            pos_f64(v, "a latency objective in ms")?),
        flag!("--batch-max", "N", |r, v| r.cfg.batch_max =
            pos_int(v, "a batch size limit")?),
        flag!("--batch-delay-ms", "MS", |r, v| {
            r.cfg.batch_delay_ms = nonneg_f64(v, "a delay in ms")?;
            r.delay_set = true
        }),
        flag!("--policy", "rr|jsq|lel", |r, v| r.cfg.policy =
            RoutePolicy::from_name(v).ok_or("one of rr, jsq, lel")?),
        flag!("--seed", "S", |r, v| r.cfg.seed = seed(v)?),
        flag!("--frames", "N", |r, v| r.frames =
            num(v, "a request count")?),
        flag!("--dropout", "P", |r, v| r.cfg.replica_dropout = prob(v)?),
        flag!("--thermal", "", |r, _| r.cfg.thermal = true),
        flag!("--power-scale", "X", |r, v| r.cfg.power_scale =
            pos_f64(v, "a power multiplier")?),
        flag!("--no-admission", "", |r, _| r.cfg.admission = false),
        flag!("--straggler", "P,FACTOR", |r, v| {
            let (p, factor) = straggler(v)?;
            r.cfg = r.cfg.with_straggler(p, factor)
        }),
        flag!("--loss", "P", |r, v| r.cfg = r.cfg.with_loss(prob(v)?)),
        flag!("--hedge-ms", "MS", |r, v| r.cfg = r
            .cfg
            .with_hedge_ms(nonneg_f64(v, "a non-negative slack in ms")?)),
        flag!("--retry-budget", "TOKENS", |r, v| r.cfg =
            r.cfg.with_retry_budget(RetryBudgetConfig {
                initial_tokens: pos_f64(v, "a positive token count")?,
                ..RetryBudgetConfig::default()
            })),
        flag!("--breaker", "", |r, _| r.cfg =
            r.cfg.with_breaker(BreakerConfig::default())),
        flag!("--ladder", "", |r, _| r.cfg = r.cfg.with_ladder(true)),
        flag!("--sdc", "P", |r, v| r.cfg = r.cfg.with_sdc(prob(v)?)),
        flag!("--no-sdc-guards", "", |r, _| r.cfg =
            r.cfg.with_sdc_guards(false)),
        flag!("--events", "", |r, _| r.show_events = true),
        flag!("--csv", "", |r, _| r.csv = true),
    ];

    fn defaults() -> Self {
        ServeRun {
            model: Model::MobileNetV2,
            devices: vec![Device::RaspberryPi3, Device::JetsonNano, Device::JetsonTx2],
            replicas: 1,
            rate_hz: 30.0,
            trace: "poisson".to_string(),
            frames: 2000,
            csv: false,
            show_events: false,
            delay_set: false,
            cfg: ServeConfig::new(100.0),
        }
    }

    fn finish(self) -> Result<Self, CliError> {
        if self.delay_set && self.cfg.batch_max <= 1 {
            return Err(CliError::conflict(
                "--batch-delay-ms has no effect with --batch-max 1 (batching is off)",
            ));
        }
        Ok(self)
    }
}

/// Runs one fleet serving simulation from parsed flags.
fn run_serve(args: &[String]) -> ExitCode {
    let Some(run) = parse_or_usage::<ServeRun>(args) else {
        return ExitCode::FAILURE;
    };
    let traffic = Traffic::from_flag(&run.trace, run.rate_hz, run.cfg.seed)
        .expect("trace validated at parse time");
    let mut per_device = Vec::new();
    for &device in &run.devices {
        let Some(spec) = ReplicaSpec::best_for(run.model, device) else {
            eprintln!(
                "{} has no feasible framework on {}",
                run.model,
                device.name()
            );
            return ExitCode::FAILURE;
        };
        per_device.push(spec);
    }
    let specs = per_device
        .iter()
        .flat_map(|&spec| std::iter::repeat_n(spec, run.replicas));
    let fleet = match Fleet::new(specs) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("cannot build fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match fleet.serve(&traffic, run.frames, &run.cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if run.csv {
        print!("{}", report.to_csv());
    } else {
        let title = format!(
            "serve: {} x{} | {} trace @ {} req/s | SLO {} ms",
            run.model,
            fleet.len(),
            traffic.kind(),
            run.rate_hz,
            run.cfg.slo_ms,
        );
        println!("{}", report.to_report(title).to_table_string());
        println!("{}", report.replica_report("replicas").to_table_string());
    }
    if run.show_events {
        print!("{}", report.events_csv());
    }
    ExitCode::SUCCESS
}

/// Everything the `geo` subcommand needs to run, parsed and validated.
#[derive(Debug, PartialEq)]
struct GeoRun {
    cfg: geo::GeoConfig,
    requests: usize,
    csv: bool,
}

impl Command for GeoRun {
    const NAME: &'static str = "geo";
    const FLAGS: &'static [Flag<Self>] = &[
        flag!("--model", "M", |r, v| r.cfg.model = model(v)?),
        flag!("--slo-ms", "MS", |r, v| r.cfg.slo_ms =
            pos_f64(v, "a positive SLO in ms")?),
        flag!("--requests", "N", |r, v| r.requests =
            pos_int(v, "a positive request count")?),
        flag!("--base-hz", "HZ", |r, v| r.cfg.base_hz =
            pos_f64(v, "a positive rate in req/s")?),
        flag!("--peak-hz", "HZ", |r, v| r.cfg.peak_hz =
            pos_f64(v, "a positive rate in req/s")?),
        flag!("--period-s", "S", |r, v| r.cfg.period_s =
            pos_f64(v, "a positive period in seconds")?),
        flag!("--wan-rtt-ms", "MS", |r, v| r.cfg.wan_rtt_ms =
            nonneg_f64(v, "a non-negative RTT in ms")?),
        flag!("--import", "N", |r, v| r.cfg.import_replicas =
            num(v, "a spillover replica count")?),
        flag!("--batch-max", "N", |r, v| r.cfg.batch_max =
            pos_int(v, "a positive batch size")?),
        flag!("--no-autoscale", "", |r, _| r.cfg.autoscale = None),
        flag!("--seed", "S", |r, v| r.cfg.seed = num(v, "a u64 seed")?),
        flag!("--csv", "", |r, _| r.csv = true),
    ];

    fn defaults() -> Self {
        GeoRun {
            cfg: geo::GeoConfig::new(100.0),
            requests: 8000,
            csv: false,
        }
    }

    fn finish(self) -> Result<Self, CliError> {
        if self.cfg.peak_hz < self.cfg.base_hz {
            return Err(CliError::conflict("--peak-hz must be at least --base-hz"));
        }
        Ok(self)
    }
}

/// Runs the multi-region serving simulation from parsed flags.
fn run_geo(args: &[String], jobs: usize) -> ExitCode {
    let Some(run) = parse_or_usage::<GeoRun>(args) else {
        return ExitCode::FAILURE;
    };
    let regions = geo::default_regions(run.cfg.period_s);
    let report = match geo::run_geo(&run.cfg, &regions, run.requests, jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("geo failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let title = format!(
        "geo: {} | {} regions x {} reqs | {}..{} req/s over {} s | SLO {} ms",
        run.cfg.model,
        regions.len(),
        run.requests,
        run.cfg.base_hz,
        run.cfg.peak_hz,
        run.cfg.period_s,
        run.cfg.slo_ms,
    );
    let rendered = report.to_report(title);
    if run.csv {
        print!("{}", rendered.to_csv());
    } else {
        println!("{}", rendered.to_table_string());
        println!(
            "fleet: {:.3} mJ/req | {:.4} mg CO2/req",
            report.energy_per_request_mj(),
            report.carbon_per_request_mg(),
        );
    }
    ExitCode::SUCCESS
}

/// Everything the `runtime` subcommand needs to run, parsed and validated.
#[derive(Debug, PartialEq)]
struct RuntimeRun {
    cfg: RuntimeConfig,
    frames: usize,
    rate_hz: f64,
    trace: String,
    hit_rate: f64,
    procs: bool,
    stage: Option<String>,
    dir: Option<PathBuf>,
    out: Option<PathBuf>,
    trace_in: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    show_events: bool,
    sink: bool,
    chaos_events: Option<usize>,
    chaos_seed: Option<u64>,
    /// `--block` / `--drop-oldest` were given (they are exclusive).
    block: bool,
    drop_oldest: bool,
    /// `--sentry` / `--supervise` were given; their knobs fill in
    /// `cfg.sentry` / `cfg.supervise` and need the switch.
    sentry: bool,
    supervise: bool,
    /// The explicit `--chaos` schedule, parsed once every flag is in.
    chaos: Option<String>,
}

impl Command for RuntimeRun {
    const NAME: &'static str = "runtime";
    const FLAGS: &'static [Flag<Self>] = &[
        flag!("--model", "M", |r, v| r.cfg.model = model(v)?),
        flag!("--device", "D", |r, v| r.cfg.device = device(v)?),
        flag!("--frames", "N", |r, v| r.frames =
            pos_int(v, "a positive frame count")?),
        flag!("--rate", "HZ", |r, v| r.rate_hz =
            pos_f64(v, "a positive rate in frames/s")?),
        flag!("--trace", "steady|poisson|diurnal|burst", |r, v| r.trace =
            trace(v)?),
        flag!("--hit-rate", "P", |r, v| r.hit_rate = prob(v)?),
        flag!("--seed", "S", |r, v| r.cfg.seed = seed(v)?),
        flag!("--ring-capacity", "N", |r, v| r.cfg.ring_capacity =
            pow2(v, "a power-of-two slot count >= 1")?),
        flag!("--block", "", |r, _| r.block = true),
        flag!("--drop-oldest", "", |r, _| r.drop_oldest = true),
        flag!("--sentry", "", |r, _| r.sentry = true),
        flag!("--sentry-cooldown", "N", |r, v| r
            .cfg
            .sentry
            .get_or_insert_with(SentryConfig::default)
            .cooldown =
            pos_int(v, "a positive quiet-frame count")?),
        flag!("--sentry-recall", "P", |r, v| r
            .cfg
            .sentry
            .get_or_insert_with(SentryConfig::default)
            .standby_recall =
            prob(v)?),
        flag!("--flip-rate", "P", |r, v| r.cfg.ipc_flip_rate = prob(v)?),
        flag!("--capture-ns", "N", |r, v| r.cfg.capture_ns_per_elem =
            num(v, "ns per payload element")?),
        flag!("--preprocess-ns", "N", |r, v| r
            .cfg
            .preprocess_ns_per_elem =
            num(v, "ns per payload element")?),
        flag!("--exec", "model|real", |r, v| r.cfg.exec = one_of(
            v,
            &[("model", ExecMode::Model), ("real", ExecMode::Real)],
            "one of model, real"
        )?),
        flag!("--pace", "", |r, _| r.cfg.pace = true),
        flag!("--supervise", "", |r, _| r.supervise = true),
        flag!("--restart-budget", "N", |r, v| r
            .cfg
            .supervise
            .get_or_insert_with(SuperviseConfig::default)
            .restart_budget =
            up_to(v, 64, "a restart count (0..=64)")?),
        flag!("--heartbeat-ms", "N", |r, v| r
            .cfg
            .supervise
            .get_or_insert_with(SuperviseConfig::default)
            .heartbeat_ms =
            num(v, "a heartbeat period in ms (>= 10)")?),
        flag!("--chaos", "SPEC", |r, v| r.chaos = Some(v.to_string())),
        flag!("--chaos-events", "N", |r, v| r.chaos_events =
            Some(pos_int(v, "a positive chaos event count")?)),
        flag!("--chaos-seed", "S", |r, v| r.chaos_seed = Some(seed(v)?)),
        flag!("--procs", "", |r, _| r.procs = true),
        flag!("--stage", "S", |r, v| r.stage = Some(v.to_string())),
        flag!("--dir", "D", |r, v| r.dir = Some(path(v)?)),
        flag!("--sink", "", |r, _| r.sink = true),
        flag!("--out", "PATH", |r, v| r.out = Some(path(v)?)),
        flag!("--trace-in", "PATH", |r, v| r.trace_in = Some(path(v)?)),
        flag!("--trace-out", "PATH", |r, v| r.trace_out = Some(path(v)?)),
        flag!("--events", "", |r, _| r.show_events = true),
    ];

    fn defaults() -> Self {
        RuntimeRun {
            cfg: RuntimeConfig::new(Model::MobileNetV2, Device::JetsonNano),
            frames: 300,
            rate_hz: 60.0,
            trace: "poisson".to_string(),
            hit_rate: 0.1,
            procs: false,
            stage: None,
            dir: None,
            out: None,
            trace_in: None,
            trace_out: None,
            show_events: false,
            sink: false,
            chaos_events: None,
            chaos_seed: None,
            block: false,
            drop_oldest: false,
            sentry: false,
            supervise: false,
            chaos: None,
        }
    }

    fn finish(mut self) -> Result<Self, CliError> {
        let rules = [
            (
                self.block && self.drop_oldest,
                "--block and --drop-oldest are mutually exclusive backpressure policies",
            ),
            (
                self.cfg.sentry.is_some() && !self.sentry,
                "--sentry-cooldown / --sentry-recall only make sense with --sentry",
            ),
            (
                self.cfg.supervise.is_some() && !self.supervise,
                "--restart-budget / --heartbeat-ms only make sense with --supervise",
            ),
            (
                self.chaos.is_some() && self.chaos_events.is_some(),
                "--chaos gives an explicit schedule; --chaos-events generates one — pick one",
            ),
            (
                self.chaos_seed.is_some() && self.chaos_events.is_none(),
                "--chaos-seed only seeds a generated campaign (--chaos-events)",
            ),
            (
                self.sink && self.stage.is_none(),
                "--sink drains one child stage; it needs --stage",
            ),
            (
                self.trace_in.is_some() && self.trace_out.is_some(),
                "--trace-in replays a recorded trace; --trace-out records a fresh one — pick one",
            ),
            (
                self.stage.is_some() && self.dir.is_none(),
                "--stage needs --dir (the run directory the supervisor created)",
            ),
            (
                self.stage.is_some() && self.procs,
                "--stage runs one child stage; --procs is the supervisor — pick one",
            ),
        ];
        if let Some((_, message)) = rules.iter().find(|(broken, _)| *broken) {
            return Err(CliError::conflict(message));
        }
        if self.drop_oldest {
            self.cfg.policy = DropPolicy::DropOldest;
        }
        if self.sentry {
            self.cfg.sentry.get_or_insert_with(SentryConfig::default);
        }
        if self.supervise {
            self.cfg
                .supervise
                .get_or_insert_with(SuperviseConfig::default);
        }
        if let Some(spec) = &self.chaos {
            let plan = ChaosPlan::parse(spec).map_err(|e| CliError::Conflict {
                message: format!("--chaos got '{spec}': {e}"),
            })?;
            self.cfg.chaos = Some(plan);
        }
        Ok(self)
    }
}

/// Loads or generates the runtime trace for parsed flags.
fn runtime_trace(run: &RuntimeRun) -> Result<TraceFile, String> {
    if let Some(path) = &run.trace_in {
        return TraceFile::read_from(path).map_err(|e| format!("{}: {e}", path.display()));
    }
    let traffic = Traffic::from_flag(&run.trace, run.rate_hz, run.cfg.seed)
        .expect("trace validated at parse time");
    TraceFile::generate(&traffic, run.frames, run.hit_rate, run.cfg.seed).map_err(|e| e.to_string())
}

/// Runs the zero-copy pipeline runtime from parsed flags: a child stage
/// (`--stage`), the multi-process supervisor (`--procs`), or the in-process
/// thread loopback (default).
fn run_runtime(args: &[String]) -> ExitCode {
    let Some(mut run) = parse_or_usage::<RuntimeRun>(args) else {
        return ExitCode::FAILURE;
    };
    if let (Some(stage), Some(dir)) = (&run.stage, &run.dir) {
        return match runtime::run_stage(stage, dir, &run.cfg, run.sink) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("stage {stage} failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let trace = match runtime_trace(&run) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot load trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = run.chaos_events {
        let seed = run.chaos_seed.unwrap_or(run.cfg.seed);
        run.cfg.chaos = Some(ChaosPlan::generate(seed, n, trace.points.len() as u64));
    }
    let run = run;
    if let Some(path) = &run.trace_out {
        return match trace.write_to(path) {
            Ok(()) => {
                println!(
                    "wrote {} frames ({} hits) to {}",
                    trace.points.len(),
                    trace.points.iter().filter(|p| p.hit).count(),
                    path.display()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("cannot write trace: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if run.procs {
        let bin = match env::current_exe() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot locate own binary for child stages: {e}");
                return ExitCode::FAILURE;
            }
        };
        runtime::run_processes(&run.cfg, &trace, &bin)
    } else {
        runtime::run_replay(&run.cfg, &trace)
    };
    match result {
        Ok(report) => {
            if let Some(path) = &run.out {
                if let Err(e) = std::fs::write(path, report.to_csv()) {
                    eprintln!("cannot write report: {e}");
                    return ExitCode::FAILURE;
                }
            } else {
                print!("{}", report.to_csv());
            }
            if run.show_events {
                print!("{}", report.event_log().to_csv());
            }
            if !report.degraded.is_empty() {
                eprintln!("degraded stages: {}", report.degraded.join(", "));
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("runtime failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_all(jobs: usize) -> ExitCode {
    for (_, report) in experiments::run_all(jobs) {
        println!("{}", report.to_table_string());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = env::args().skip(1).collect();
    let jobs = match take_jobs_flag(&mut args) {
        Ok(jobs) => jobs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match args.first().map(String::as_str) {
        Some("list") => {
            for e in experiments::all() {
                println!("{:8}  {}", e.id(), e.title());
            }
            ExitCode::SUCCESS
        }
        Some("run") => match args.get(1).map(String::as_str) {
            None | Some("all") => run_all(jobs),
            Some(id) => match experiments::by_id(id) {
                Some(e) => {
                    println!("{}", e.run().to_table_string());
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!("unknown experiment '{id}'; try `edgebench-cli list`");
                    ExitCode::FAILURE
                }
            },
        },
        Some("csv") => match args.get(1).and_then(|id| experiments::by_id(id)) {
            Some(e) => {
                print!("{}", e.run().to_csv());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("unknown experiment; try `edgebench-cli list`");
                ExitCode::FAILURE
            }
        },
        Some("summary") => with_model(args.get(1).map(String::as_str), viz::summary),
        Some("dot") => with_model(args.get(1).map(String::as_str), viz::to_dot),
        Some("infer") => run_infer(&args[1..]),
        Some("resilience") => run_resilience(&args[1..]),
        Some("serve") => run_serve(&args[1..]),
        Some("geo") => run_geo(&args[1..], jobs),
        Some("runtime") => run_runtime(&args[1..]),
        None => run_all(jobs),
        Some(other) => {
            eprintln!(
                "unknown command '{other}'; usage: edgebench-cli [--jobs N] [list | run <id|all> | csv <id> | summary <model> | dot <model> | infer [flags] | resilience [flags] | serve [flags] | geo [flags] | runtime [flags]]"
            );
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse_resilience(args: &[String]) -> Result<ResilienceRun, CliError> {
        parse(args)
    }

    fn parse_infer(args: &[String]) -> Result<InferRun, CliError> {
        parse(args)
    }

    fn parse_serve(args: &[String]) -> Result<ServeRun, CliError> {
        parse(args)
    }

    fn parse_geo(args: &[String]) -> Result<GeoRun, CliError> {
        parse(args)
    }

    fn parse_runtime(args: &[String]) -> Result<RuntimeRun, CliError> {
        parse(args)
    }

    /// Parses `args` as subcommand `command`, keeping only the outcome.
    fn parse_command(command: &str, args: &[String]) -> Result<(), CliError> {
        match command {
            "resilience" => parse_resilience(args).map(drop),
            "infer" => parse_infer(args).map(drop),
            "serve" => parse_serve(args).map(drop),
            "geo" => parse_geo(args).map(drop),
            "runtime" => parse_runtime(args).map(drop),
            other => panic!("no subcommand {other}"),
        }
    }

    #[test]
    fn missing_value_is_typed() {
        let err = parse_serve(&argv("--rate")).unwrap_err();
        assert_eq!(
            err,
            CliError::MissingValue {
                flag: "--rate".to_string()
            }
        );
        assert_eq!(err.to_string(), "--rate expects a value");
    }

    #[test]
    fn out_of_range_probability_is_invalid() {
        let err = parse_serve(&argv("--loss 1.5")).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid { flag, .. } if flag == "--loss"),
            "{err:?}"
        );
        assert!(err.to_string().contains("probability in [0, 1]"));
        assert!(parse_serve(&argv("--dropout -0.1")).is_err());
    }

    #[test]
    fn unknown_flag_names_the_command() {
        let err = parse_serve(&argv("--warp-speed 9")).unwrap_err();
        assert_eq!(
            err,
            CliError::UnknownFlag {
                command: "serve",
                flag: "--warp-speed".to_string()
            }
        );
        let err = parse_resilience(&argv("--warp-speed")).unwrap_err();
        assert_eq!(
            err,
            CliError::UnknownFlag {
                command: "resilience",
                flag: "--warp-speed".to_string()
            }
        );
        let err = parse_geo(&argv("--warp-speed")).unwrap_err();
        assert_eq!(
            err,
            CliError::UnknownFlag {
                command: "geo",
                flag: "--warp-speed".to_string()
            }
        );
    }

    #[test]
    fn geo_flags_parse_into_the_config() {
        let run = parse_geo(&argv(
            "--model resnet-18 --slo-ms 150 --requests 500 --base-hz 10 --peak-hz 90 \
             --period-s 45 --wan-rtt-ms 120 --import 2 --batch-max 4 --no-autoscale \
             --seed 9 --csv",
        ))
        .unwrap();
        assert_eq!(run.cfg.model, Model::ResNet18);
        assert_eq!(run.cfg.slo_ms, 150.0);
        assert_eq!(run.requests, 500);
        assert_eq!(run.cfg.base_hz, 10.0);
        assert_eq!(run.cfg.peak_hz, 90.0);
        assert_eq!(run.cfg.period_s, 45.0);
        assert_eq!(run.cfg.wan_rtt_ms, 120.0);
        assert_eq!(run.cfg.import_replicas, 2);
        assert_eq!(run.cfg.batch_max, 4);
        assert_eq!(run.cfg.autoscale, None);
        assert_eq!(run.cfg.seed, 9);
        assert!(run.csv);
    }

    #[test]
    fn geo_rejects_an_inverted_diurnal_swing() {
        let err = parse_geo(&argv("--base-hz 100 --peak-hz 50")).unwrap_err();
        assert!(
            matches!(&err, CliError::Conflict { .. }),
            "inverted swing must be a typed conflict: {err:?}"
        );
    }

    #[test]
    fn batch_delay_without_batching_conflicts() {
        let err = parse_serve(&argv("--batch-max 1 --batch-delay-ms 5")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        // With batching on, the same delay parses fine.
        assert!(parse_serve(&argv("--batch-max 4 --batch-delay-ms 5")).is_ok());
    }

    #[test]
    fn zero_replicas_is_rejected() {
        let err = parse_serve(&argv("--replicas 0")).unwrap_err();
        assert!(matches!(&err, CliError::Invalid { flag, .. } if flag == "--replicas"));
    }

    #[test]
    fn unknown_trace_is_invalid() {
        let err = parse_serve(&argv("--trace sawtooth")).unwrap_err();
        assert!(matches!(&err, CliError::Invalid { flag, .. } if flag == "--trace"));
    }

    #[test]
    fn resilience_flags_parse_into_the_config() {
        let run = parse_serve(&argv(
            "--straggler 0.05,6 --loss 0.02 --hedge-ms 2 --retry-budget 10 --breaker --ladder --events",
        ))
        .unwrap();
        assert_eq!(run.cfg.resilience.hedge_ms, Some(2.0));
        assert_eq!(
            run.cfg.resilience.retry.map(|r| r.initial_tokens),
            Some(10.0)
        );
        assert!(run.cfg.resilience.breaker.is_some());
        assert!(run.cfg.resilience.ladder);
        assert_eq!(run.cfg.resilience.faults.straggler, 0.05);
        assert_eq!(run.cfg.resilience.faults.straggler_factor, 6.0);
        assert_eq!(run.cfg.resilience.faults.loss, 0.02);
        assert!(run.show_events);
    }

    #[test]
    fn malformed_straggler_pairs_are_rejected() {
        assert!(parse_serve(&argv("--straggler 0.05")).is_err());
        assert!(parse_serve(&argv("--straggler 0.05,0.5")).is_err());
        assert!(parse_serve(&argv("--straggler 1.5,4")).is_err());
    }

    #[test]
    fn defaults_parse_clean() {
        let run = parse_serve(&[]).unwrap();
        assert!(!run.cfg.resilience.is_active());
        assert_eq!(run.replicas, 1);
        let run = parse_resilience(&[]).unwrap();
        assert_eq!(run.frames, 300);
    }

    #[test]
    fn infer_flags_parse_into_the_run() {
        let run = parse_infer(&argv(
            "--model mobilenet-v2 --batch 8 --threads 4 --precision int8 --iters 3 --seed 7 --sparsity 0.5 --kernel scalar",
        ))
        .unwrap();
        assert_eq!(run.model, Model::MobileNetV2);
        assert_eq!(run.batch, 8);
        assert_eq!(run.threads, 4);
        assert_eq!(run.precision, Precision::Int8);
        assert_eq!(run.iters, 3);
        assert_eq!(run.seed, 7);
        assert_eq!(run.sparsity, 0.5);
        assert_eq!(run.kernel, KernelKind::Scalar);
        assert!(matches!(
            parse_infer(&argv("--kernel simd")).unwrap_err(),
            CliError::Invalid { .. }
        ));
    }

    #[test]
    fn infer_defaults_parse_clean() {
        let run = parse_infer(&[]).unwrap();
        assert_eq!(run.model, Model::CifarNet);
        assert_eq!(run.batch, 1);
        assert_eq!(run.threads, 1);
        assert_eq!(run.precision, Precision::F32);
        assert_eq!(run.kernel, KernelKind::Auto);
    }

    #[test]
    fn infer_rejects_bad_values() {
        assert!(matches!(
            parse_infer(&argv("--batch 0")).unwrap_err(),
            CliError::Invalid { .. }
        ));
        assert!(matches!(
            parse_infer(&argv("--precision f64")).unwrap_err(),
            CliError::Invalid { .. }
        ));
        assert!(matches!(
            parse_infer(&argv("--kernel gpu")).unwrap_err(),
            CliError::Invalid { .. }
        ));
        assert!(matches!(
            parse_infer(&argv("--iters 0")).unwrap_err(),
            CliError::Invalid { .. }
        ));
        assert_eq!(
            parse_infer(&argv("--turbo")).unwrap_err(),
            CliError::UnknownFlag {
                command: "infer",
                flag: "--turbo".to_string()
            }
        );
    }

    #[test]
    fn sdc_infer_flags_parse_into_the_run() {
        let run = parse_infer(&argv("--flip-rate 1e-6 --flip-seed 9 --guards")).unwrap();
        assert_eq!(run.flip_rate, 1e-6);
        assert_eq!(run.flip_seed, 9);
        assert!(run.guards);
        // Defaults: fault injection and guards are both off.
        let run = parse_infer(&[]).unwrap();
        assert_eq!(run.flip_rate, 0.0);
        assert_eq!(run.flip_seed, 0x5dc);
        assert!(!run.guards);
        // The flip rate is a probability; 2 flips/byte is nonsense.
        assert!(matches!(
            parse_infer(&argv("--flip-rate 2")).unwrap_err(),
            CliError::Invalid { .. }
        ));
    }

    #[test]
    fn sdc_serve_flags_parse_into_the_config() {
        let run = parse_serve(&argv("--sdc 0.1")).unwrap();
        assert_eq!(run.cfg.resilience.sdc.corruption, 0.1);
        assert!(run.cfg.resilience.sdc.guards, "guards default on");
        let run = parse_serve(&argv("--sdc 0.1 --no-sdc-guards")).unwrap();
        assert!(!run.cfg.resilience.sdc.guards);
        assert!(parse_serve(&argv("--sdc 1.5")).is_err());
    }

    #[test]
    fn runtime_flags_parse_into_the_config() {
        let run = parse_runtime(&argv(
            "--model mobilenet-v2 --device jetson-nano --frames 120 --rate 45 --hit-rate 0.2 \
             --seed 9 --ring-capacity 16 --drop-oldest --sentry --sentry-cooldown 4 \
             --sentry-recall 0.9 --flip-rate 1e-6 --exec real --pace",
        ))
        .unwrap();
        assert_eq!(run.cfg.model, Model::MobileNetV2);
        assert_eq!(run.cfg.device, Device::JetsonNano);
        assert_eq!(run.frames, 120);
        assert_eq!(run.rate_hz, 45.0);
        assert_eq!(run.hit_rate, 0.2);
        assert_eq!(run.cfg.seed, 9);
        assert_eq!(run.cfg.ring_capacity, 16);
        assert_eq!(run.cfg.policy, DropPolicy::DropOldest);
        assert_eq!(
            run.cfg.sentry,
            Some(SentryConfig {
                cooldown: 4,
                standby_recall: 0.9
            })
        );
        assert_eq!(run.cfg.ipc_flip_rate, 1e-6);
        assert_eq!(run.cfg.exec, ExecMode::Real);
        assert!(run.cfg.pace);
    }

    #[test]
    fn runtime_defaults_parse_clean() {
        let run = parse_runtime(&[]).unwrap();
        assert_eq!(run.cfg.ring_capacity, 8);
        assert_eq!(run.cfg.policy, DropPolicy::Block);
        assert_eq!(run.cfg.sentry, None);
        assert_eq!(run.cfg.exec, ExecMode::Model);
        assert!(!run.procs && run.stage.is_none());
    }

    #[test]
    fn runtime_rejects_bad_ring_capacity() {
        for bad in ["0", "3", "-1", "lots"] {
            let err = parse_runtime(&argv(&format!("--ring-capacity {bad}"))).unwrap_err();
            assert!(
                matches!(&err, CliError::Invalid { flag, .. } if flag == "--ring-capacity"),
                "{bad}: {err:?}"
            );
        }
        assert!(parse_runtime(&argv("--ring-capacity 4")).is_ok());
    }

    #[test]
    fn runtime_rejects_unknown_model_and_device() {
        let err = parse_runtime(&argv("--model squeezenet-9000")).unwrap_err();
        assert!(matches!(&err, CliError::Invalid { flag, .. } if flag == "--model"));
        let err = parse_runtime(&argv("--device abacus")).unwrap_err();
        assert!(matches!(&err, CliError::Invalid { flag, .. } if flag == "--device"));
    }

    #[test]
    fn runtime_conflicting_policies_are_rejected() {
        let err = parse_runtime(&argv("--block --drop-oldest")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse_runtime(&argv("--drop-oldest --block")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        // Repeating the same policy is fine.
        assert!(parse_runtime(&argv("--block --block")).is_ok());
    }

    #[test]
    fn runtime_sentry_knobs_require_sentry() {
        let err = parse_runtime(&argv("--sentry-cooldown 4")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse_runtime(&argv("--sentry-recall 0.5")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        assert!(parse_runtime(&argv("--sentry --sentry-cooldown 4")).is_ok());
        assert!(parse_runtime(&argv("--sentry --sentry-cooldown 0")).is_err());
        assert!(parse_runtime(&argv("--sentry --sentry-recall 1.2")).is_err());
    }

    #[test]
    fn runtime_trace_io_and_stage_conflicts() {
        let err = parse_runtime(&argv("--trace-in a.bin --trace-out b.bin")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse_runtime(&argv("--stage capture")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse_runtime(&argv("--stage capture --dir /tmp/x --procs")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        assert!(parse_runtime(&argv("--stage capture --dir /tmp/x")).is_ok());
    }

    #[test]
    fn runtime_rejects_bad_probabilities_and_frames() {
        assert!(parse_runtime(&argv("--hit-rate 1.5")).is_err());
        assert!(parse_runtime(&argv("--flip-rate -0.1")).is_err());
        assert!(parse_runtime(&argv("--frames 0")).is_err());
        assert!(parse_runtime(&argv("--rate 0")).is_err());
        assert_eq!(
            parse_runtime(&argv("--warp-speed")).unwrap_err(),
            CliError::UnknownFlag {
                command: "runtime",
                flag: "--warp-speed".to_string()
            }
        );
    }

    #[test]
    fn runtime_supervise_flags_parse_into_the_config() {
        let run =
            parse_runtime(&argv("--supervise --restart-budget 5 --heartbeat-ms 120")).unwrap();
        let sup = run.cfg.supervise.expect("--supervise sets the config");
        assert_eq!(sup.restart_budget, 5);
        assert_eq!(sup.heartbeat_ms, 120);
        // Bare --supervise takes the defaults.
        let run = parse_runtime(&argv("--supervise")).unwrap();
        assert_eq!(run.cfg.supervise, Some(SuperviseConfig::default()));
        // The knobs alone are a conflict, mirroring the sentry idiom.
        let err = parse_runtime(&argv("--restart-budget 3")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse_runtime(&argv("--heartbeat-ms 50")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
    }

    #[test]
    fn runtime_chaos_flags_parse_and_conflict() {
        let run = parse_runtime(&argv("--supervise --chaos kill@1:37,hang@2:90")).unwrap();
        let plan = run.cfg.chaos.expect("--chaos sets the plan");
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.to_spec(), "kill@1:37,hang@2:90");
        // A generated campaign is deferred until the trace length is known.
        let run = parse_runtime(&argv("--supervise --chaos-events 6 --chaos-seed 9")).unwrap();
        assert_eq!(run.chaos_events, Some(6));
        assert_eq!(run.chaos_seed, Some(9));
        assert!(run.cfg.chaos.is_none());
        // Explicit and generated schedules are mutually exclusive.
        let err = parse_runtime(&argv("--chaos kill@1:3 --chaos-events 2")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse_runtime(&argv("--chaos-seed 4")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let err = parse_runtime(&argv("--chaos wedge@9:1")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        assert!(parse_runtime(&argv("--chaos-events 0")).is_err());
    }

    #[test]
    fn runtime_sink_requires_a_stage() {
        let err = parse_runtime(&argv("--sink")).unwrap_err();
        assert!(matches!(err, CliError::Conflict { .. }), "{err:?}");
        let run = parse_runtime(&argv("--stage inference --dir /tmp/x --sink")).unwrap();
        assert!(run.sink);
    }

    #[test]
    fn jobs_flag_is_extracted_anywhere() {
        let mut args = argv("run all --jobs 4");
        assert_eq!(take_jobs_flag(&mut args), Ok(4));
        assert_eq!(args, argv("run all"));
        let mut args = argv("--jobs=0 run");
        assert_eq!(take_jobs_flag(&mut args), Ok(0));
        let mut args = argv("run --jobs");
        assert!(take_jobs_flag(&mut args).is_err());
    }

    #[test]
    fn infer_threads_has_a_ceiling() {
        assert_eq!(parse_infer(&argv("--threads 0")).unwrap().threads, 0);
        assert_eq!(
            parse_infer(&argv("--threads 1024")).unwrap().threads,
            MAX_THREADS
        );
        let err = parse_infer(&argv("--threads 1025")).unwrap_err();
        assert!(
            matches!(&err, CliError::Invalid { flag, .. } if flag == "--threads"),
            "{err:?}"
        );
    }

    /// Values every subcommand used to accept and then ran on: NaN and
    /// infinite rates, negative or NaN SLOs, a zero batch cap, and a
    /// thread count that aborts on allocation.
    #[test]
    fn validation_holes_are_typed_invalid_errors() {
        for (command, line, flag) in [
            ("serve", "--rate nan", "--rate"),
            ("serve", "--rate inf", "--rate"),
            ("serve", "--slo-ms -5", "--slo-ms"),
            ("serve", "--slo-ms nan", "--slo-ms"),
            ("serve", "--batch-max 0", "--batch-max"),
            ("geo", "--base-hz nan", "--base-hz"),
            ("runtime", "--rate nan", "--rate"),
            ("infer", "--threads 99999999999", "--threads"),
        ] {
            let err = parse_command(command, &argv(line)).unwrap_err();
            assert!(
                matches!(&err, CliError::Invalid { flag: f, .. } if f == flag),
                "{command} {line}: {err:?}"
            );
        }
    }

    #[test]
    fn usage_is_rendered_from_the_flag_table() {
        let serve = usage::<ServeRun>();
        assert!(serve.starts_with("usage: edgebench-cli serve [--model M]"));
        assert!(serve.contains(" [--rate HZ] "), "{serve}");
        assert!(serve.ends_with(" [--events] [--csv]"), "{serve}");
        assert!(!serve.contains("--engine"), "{serve}");
        let runtime = usage::<RuntimeRun>();
        for flag in RuntimeRun::FLAGS {
            assert!(runtime.contains(&format!("[{}", flag.name)), "{runtime}");
        }
    }

    /// Seeded token mutations of the valid invocations above (drop,
    /// duplicate, swap, truncate, replace a token with a hostile value,
    /// splice a character into a token): every parse returns `Ok` or a
    /// typed [`CliError`] and never panics.
    #[test]
    fn cli_fuzz_never_panics() {
        const CORPUS: [(&str, &str); 12] = [
            (
                "resilience",
                "--dropout 0.002 --frames 300 --thermal --no-repartition",
            ),
            (
                "resilience",
                "--seed 7 --link-loss 0.02 --events --stages 3",
            ),
            (
                "infer",
                "--model mobilenet-v2 --batch 8 --threads 4 --precision int8 --iters 3 \
                 --seed 7 --sparsity 0.5 --kernel scalar",
            ),
            ("infer", "--flip-rate 1e-6 --flip-seed 9 --guards"),
            (
                "serve",
                "--straggler 0.05,6 --loss 0.02 --hedge-ms 2 --retry-budget 10 --breaker \
                 --ladder --events",
            ),
            (
                "serve",
                "--batch-max 4 --batch-delay-ms 5 --sdc 0.1 --no-sdc-guards",
            ),
            (
                "geo",
                "--model resnet-18 --slo-ms 150 --requests 500 --base-hz 10 --peak-hz 90 \
                 --period-s 45 --wan-rtt-ms 120 --import 2 --batch-max 4 --no-autoscale \
                 --seed 9 --csv",
            ),
            (
                "runtime",
                "--model mobilenet-v2 --device jetson-nano --frames 120 --rate 45 \
                 --hit-rate 0.2 --seed 9 --ring-capacity 16 --drop-oldest --sentry \
                 --sentry-cooldown 4 --sentry-recall 0.9 --flip-rate 1e-6 --exec real --pace",
            ),
            (
                "runtime",
                "--supervise --restart-budget 5 --heartbeat-ms 120",
            ),
            ("runtime", "--supervise --chaos kill@1:37,hang@2:90"),
            ("runtime", "--supervise --chaos-events 6 --chaos-seed 9"),
            ("runtime", "--stage inference --dir /tmp/x --sink"),
        ];
        const HOSTILE: [&str; 5] = [
            "nan",
            "-1",
            "",
            "1e400",
            "1234567890123456789012345678901234567890",
        ];
        const SPLICE: [char; 8] = ['@', ':', ',', '-', '.', 'x', '9', 'é'];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut below = |n: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % n.max(1) as u64) as usize
        };
        let mut accepted = 0;
        for _ in 0..2000 {
            let (command, line) = CORPUS[below(CORPUS.len())];
            let mut args = argv(line);
            for _ in 0..=below(3) {
                let len = args.len();
                match below(6) {
                    0 if len > 0 => {
                        args.remove(below(len));
                    }
                    1 if len > 0 => {
                        let i = below(len);
                        args.insert(i, args[i].clone());
                    }
                    2 if len > 0 => args.swap(below(len), below(len)),
                    3 => args.truncate(below(len + 1)),
                    4 if len > 0 => args[below(len)] = HOSTILE[below(HOSTILE.len())].to_string(),
                    5 if len > 0 => {
                        let token = &mut args[below(len)];
                        let at = token
                            .char_indices()
                            .map(|(i, _)| i)
                            .nth(below(token.chars().count() + 1))
                            .unwrap_or(token.len());
                        token.insert(at, SPLICE[below(SPLICE.len())]);
                    }
                    _ => {}
                }
            }
            accepted += usize::from(parse_command(command, &args).is_ok());
        }
        // The mutations must leave some invocations valid, or the loop
        // would only ever exercise the first rejection.
        assert!(accepted > 100, "only {accepted} of 2000 mutants parsed");
    }
}
