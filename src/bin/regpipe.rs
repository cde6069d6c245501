//! The `regpipe` command-line tool: compile loop dependence graphs under a
//! register budget from the terminal, run the batch evaluation suite over
//! the built-in synthetic loops or an on-disk corpus, and generate or
//! validate such corpora.
//!
//! Run `regpipe help` (or `regpipe help <command>`) for the full usage;
//! the same text is kept in [`VERBS`] below, and it doubles as the
//! argument grammar: a verb accepts exactly the flags its help text lists.
//! The input formats are specified in `docs/formats.md`
//! (`regpipe_ddg::textfmt` for loops, `regpipe_machine::textfmt` for
//! machine descriptions).

use std::fs;
use std::io::Write as _;
use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;

use regpipe::bench::{GapConfig, DEFAULT_SPILL_BUDGET};
use regpipe::core::{compile, CompileOptions, SpillPolicyKind, Strategy};
use regpipe::ddg::{textfmt, to_dot, Ddg};
use regpipe::exec::{
    bench_timing, parse_strategy, resolve_jobs, run_batch, strategy_slug, BatchRequest,
};
use regpipe::loops::{
    generate, load_corpus, suite, suite_size_from_env, write_corpus, BenchLoop, GenParams,
    WeightDist,
};
use regpipe::machine::MachineConfig;
use regpipe::regalloc::allocate;
use regpipe::sched::{mii, rec_mii, PipelinedLoop, SchedRequest, Scheduler, SchedulerKind};
use regpipe::serve::{
    base_requests, replay_in_process, serve_stdin, IdPolicy, ReplayConfig, ReplaySource,
    RetryPolicy, ServeOptions, Server,
};
#[cfg(unix)]
use regpipe::serve::{replay_socket, request_once, run_chaos, write_responses, ChaosConfig};

/// The seed of the built-in suite and the generators (0xC1DA).
const DEFAULT_SEED: u64 = 49626;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        // Help goes to stdout and succeeds; `regpipe help <command>`
        // narrows to one subcommand.
        Some("--help" | "-h" | "help") | None => {
            print!("{}", usage(args.get(1).map(String::as_str)));
            Ok(())
        }
        Some(name) => match VERBS.iter().find(|(help, _)| usage_word(help, 1) == name) {
            Some(&(help, run)) => Args::parse(help, &args[1..]).and_then(|args| run(&args)),
            None => Err(format!("unknown command '{name}'")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("regpipe: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// A subcommand's entry point.
type Run = fn(&Args) -> Result<(), String>;

/// Every subcommand's help text and entry point, in `regpipe help` order.
/// The help text is also the verb's grammar: its usage line names the
/// verb and, as a `<placeholder>`, the operand it takes, if any, and the
/// verb accepts exactly the `--flags` the text mentions.
const VERBS: [(&str, Run); 9] = [
    (INFO, cmd_info),
    (COMPILE, cmd_compile),
    (SUITE, cmd_suite),
    (GEN, cmd_gen),
    (CHECK, cmd_check),
    (GAP, cmd_gap),
    (SERVE, cmd_serve),
    (REPLAY, cmd_replay),
    (CHAOS, cmd_chaos),
];

/// Word `at` of a help text's usage line: 1 is the verb, 2 its operand.
fn usage_word(help: &'static str, at: usize) -> &'static str {
    help.split_whitespace().nth(at).unwrap_or_default()
}

/// The full usage text, or one subcommand's section.
fn usage(topic: Option<&str>) -> String {
    if let Some((help, _)) = VERBS.iter().find(|(help, _)| Some(usage_word(help, 1)) == topic) {
        return help.to_string();
    }
    let names: Vec<&str> = VERBS.iter().map(|(help, _)| usage_word(help, 1)).collect();
    let mut text = format!("usage: regpipe <{}|help> ...\n\n", names.join("|"));
    for (help, _) in &VERBS {
        text.push_str(help);
        text.push('\n');
    }
    text.push_str(
        "The on-disk formats (.ddg loops, .mach machine descriptions, corpus\n\
         directory layout) are specified in docs/formats.md; the serve wire\n\
         protocol in docs/serve.md.\n",
    );
    text
}

const INFO: &str = "\
regpipe info <file.ddg> [--machine M] [--scheduler S]
  Facts about a loop: op mix, MII/RecMII, recurrences, and the
  unconstrained schedule's II and register requirement.
  --scheduler hrms|sms|asap|exact                      (default hrms)
";
const COMPILE: &str = "\
regpipe compile <file.ddg> [options]
  Schedule a loop under a register budget.
  --machine p1l4|p2l4|p2l6|uniform:<units>,<latency>   (default p2l4)
  --regs <n>                                           (default 32)
  --strategy best|spill|increase-ii                    (default best)
  --scheduler hrms|sms|asap|exact                      (default hrms)
  --spill-policy paper|min-next-use|furthest-next-use|round-robin
                    victim-ranking policy for spilling   (default paper)
  --emit kernel|pipeline|dot|text                      (default kernel)
";
const SUITE: &str = "\
regpipe suite [options]
  Run the evaluation suite: every loop x budget x strategy cell is an
  independent compile call, fanned out across worker threads with
  deterministic (thread-count-independent) results, and the report is
  written as machine-readable JSON.
  --corpus <dir>    run an on-disk corpus (see `regpipe gen`/`check`)
                    instead of the built-in synthetic suite; a .mach
                    file in the corpus sets the machine unless --machine
                    is given explicitly
  --size <n>        suite size  (default: REGPIPE_SUITE_SIZE, then 1258)
  --seed <s>        suite seed  (default 49626)
  --jobs <n>        worker threads (default: REGPIPE_JOBS, then all cores)
  --machine <m>     as for compile                     (default p2l4)
  --budgets <list>  comma-separated register budgets   (default 64,32)
  --strategies <l>  comma-separated strategies         (default best,spill,increase-ii)
  --scheduler <s>   core scheduler: hrms|sms|asap|exact (default hrms)
  --spill-policy <p> paper|min-next-use|furthest-next-use|round-robin
                    (default paper; recorded in the report's spill_policy
                    field — BENCH_suite.json schema is v3)
  --out <file>      report path                        (default BENCH_suite.json)

regpipe suite --dir <dir> [--size N] [--seed S]
  Emit the archetype-mix synthetic suite as .ddg files instead of
  running it (default size 100). For knob-controlled corpora use
  `regpipe gen`.
";
const GEN: &str = "\
regpipe gen --out <dir> [options]
  Materialize a synthetic-kernel corpus as .ddg files (with # weight
  headers). Deterministic: the same seed and knobs reproduce the corpus
  byte-for-byte, and a larger --count extends a smaller one in place.
  --out <dir>       output directory                   (required)
  --seed <s>        generator seed                     (default 49626)
  --count <k>       number of kernels                  (default 100)
  --min-ops <n>     fewest ops per kernel              (default 4)
  --max-ops <n>     most ops per kernel                (default 24)
  --rec-density <f> recurrence probability per op, 0-1 (default 0.25)
  --invariants <n>  max loop invariants per kernel     (default 4)
  --weights <d>     const:<w> | uniform:<lo>,<hi> | log:<lo>,<hi>
                    (default log:2,4.2 — heavy-tailed 10^U(lo,hi))
";
const CHECK: &str = "\
regpipe check <dir>
  Validate a corpus directory without compiling: parse every .ddg and
  .mach file, reporting every problem as file:line: message. Exits 0
  only if the whole corpus is well-formed.
";
const GAP: &str = "\
regpipe gap [options]
  Measure heuristic optimality gaps: schedule a corpus with the exact
  branch-and-bound oracle and every registered heuristic, and write
  BENCH_gap.json (schema regpipe-bench-gap/v2) with per-loop and
  aggregate II/SC/MaxLive gaps plus proven/unproven counts. Gaps are
  attributed only to loops whose optimum the oracle proved within its
  node budget. Every loop is also compiled under --spill-budget once
  per registered spill policy; the report's spill_policies section
  totals spill counts and achieved IIs with deltas against the
  --spill-policy baseline (over the loops every policy fitted). The
  report carries no timing fields, so runs byte-compare at any --jobs
  value.
  --corpus <dir>    gap an on-disk corpus (see `regpipe gen`/`check`)
                    instead of a generated one; a .mach file in the
                    corpus sets the machine unless --machine is given
  --seed <s>        generator seed               (default 7)
  --count <k>       kernels                      (default 100)
  --max-ops <n>     most ops per kernel          (default 12)
  --machine <m>     as for compile               (default p2l4)
  --node-budget <n> oracle search nodes per loop (default 200000)
  --spill-policy <p> baseline policy the per-policy deltas are taken
                    against: paper|min-next-use|furthest-next-use|
                    round-robin                  (default paper)
  --spill-budget <n> register budget for the per-policy comparison
                                                 (default 16)
  --jobs <n>        worker threads (default: REGPIPE_JOBS, then all cores)
  --out <file>      report path                  (default BENCH_gap.json)
";
const SERVE: &str = "\
regpipe serve [options]
  Run the persistent compile daemon: JSON-lines requests (one object per
  line) on stdin — or a unix socket with --socket — answered from a
  sharded content-addressed LRU result cache, falling through to the
  compile engine on miss. Responses are byte-identical with the cache on
  or off. Protocol spec: docs/serve.md.
  --socket <path>      listen on a unix socket (threaded, multi-client)
                       instead of stdin/stdout
  --no-cache           disable the result cache (every request compiles)
  --cache-bytes <n>    total cache budget in bytes     (default 67108864)
  --shards <n>         cache shards                    (default 8)
  --max-request-bytes <n>  per-line request bound      (default 1048576)
  --cache-dir <dir>    persist the cache to a CRC-framed append log;
                       recovery after a crash drops only damaged entries
  --compact-appends <n>  appends between log compactions (default 8192)
  --deadline-ms <n>    per-compile cooperative deadline; blown deadlines
                       answer with error.kind \"deadline\"
  --drain-ms <n>       shutdown drain bound for in-flight connections
                       (default 2000)
  --spill-policy <p>   default policy for requests that omit the
                       spill_policy field: paper|min-next-use|
                       furthest-next-use|round-robin  (default paper)
";
const REPLAY: &str = "\
regpipe replay [options]
  Drive a deterministic request stream at a compile daemon and print the
  response stream (in request order) to stdout. Without --socket an
  in-process daemon serves the run (same engine, no transport).
  --socket <path>   unix socket of a running `regpipe serve --socket`
  --source gen|suite  workload source                  (default gen)
  --seed <s>        workload seed                      (default 49626)
  --count <k>       kernels (gen) / loops (suite)      (default 100)
  --file <path>     replay raw request lines from a file instead
                    (lines are sent verbatim; ids are yours to manage)
  --repeat <n>      passes over the stream; pass 2+ exercise the cache
                    hit path                           (default 1)
  --jobs <n>        client connections (socket) or worker threads
                    (in-process)  (default: REGPIPE_JOBS, then all cores)
  --budgets <list>  comma-separated register budgets   (default 32)
  --strategy best|spill|increase-ii                    (default best)
  --scheduler hrms|sms|asap|exact                      (default hrms)
  --spill-policy paper|min-next-use|furthest-next-use|round-robin
                    sent with every request            (default paper)
  --machine <m>     as for compile                     (default p2l4)
  --no-cache        (in-process mode) disable the daemon cache
  --cache-dir <dir> (in-process mode) persist the daemon cache on disk
  --retry <n>       attempts per request on connection failure (socket
                    mode; reconnects between attempts)    (default 1)
  --backoff-ms <n>  base retry backoff, doubled per attempt with
                    seed-deterministic jitter              (default 50)
  --stats-out <f>   write the daemon's final stats JSON to a file
  --shutdown        send a shutdown request after the run (socket mode)
";
const CHAOS: &str = "\
regpipe chaos [options]
  The deterministic crash-recovery gate: spawn real daemons on a shared
  --cache-dir, inject seeded faults (a compile panic, a flipped bit, a
  torn append, a mid-write crash) across --cycles inject-crash-restart
  cycles, and verify after every recovery that the full workload replays
  byte-identically to a never-crashed baseline. Prints a summary JSON
  (schema regpipe-chaos/v1) on success; any deviation fails the run.
  --socket <path>   daemon socket     (default: a fresh temp path)
  --cache-dir <dir> persistent cache  (default: a fresh temp dir)
  --cycles <n>      inject-crash-restart cycles        (default 3)
  --seed <s>        workload and fault-schedule seed   (default 7)
  --count <k>       workload kernels (at least 4)      (default 12)
  --jobs <n>        client connections (default: REGPIPE_JOBS, then all cores)
  --budgets <list>  comma-separated register budgets   (default 32)
  --strategy best|spill|increase-ii                    (default best)
  --scheduler hrms|sms|asap|exact                      (default hrms)
  --spill-policy paper|min-next-use|furthest-next-use|round-robin
                    sent with every request            (default paper)
  --machine <m>     as for compile                     (default p2l4)
  --out <file>      write the final clean replay's response lines
";
/// The listed flags that take no value; every other one takes exactly one.
const SWITCHES: [&str; 2] = ["--no-cache", "--shutdown"];

/// Every `--flag` a help text mentions, sorted and deduplicated.
fn listed_flags(help: &'static str) -> Vec<&'static str> {
    let words = help.split(|c: char| !c.is_ascii_alphanumeric() && c != '-');
    let mut flags: Vec<&'static str> = words.filter(|word| word.starts_with("--")).collect();
    flags.sort_unstable();
    flags.dedup();
    flags
}

/// A verb's command line, read once against the flags its help lists.
struct Args {
    help: &'static str,
    /// The flags given, in order, each with its value (empty for switches).
    given: Vec<(&'static str, String)>,
    operand: Option<String>,
}

impl Args {
    /// Reads `raw` as the arguments of the verb `help` describes: flags
    /// the help lists, each at most once and each with its value, plus
    /// the operand its usage line names, if any. Anything else is an
    /// error naming the offending argument.
    fn parse(help: &'static str, raw: &[String]) -> Result<Args, String> {
        let name = usage_word(help, 1);
        let takes_operand = usage_word(help, 2).starts_with('<');
        let listed = listed_flags(help);
        let mut args = Args { help, given: Vec::new(), operand: None };
        let mut raw = raw.iter();
        while let Some(arg) = raw.next() {
            if !arg.starts_with("--") {
                if !takes_operand || args.operand.is_some() {
                    return Err(format!("{name}: unexpected argument '{arg}'"));
                }
                args.operand = Some(arg.clone());
                continue;
            }
            let Some(flag) = listed.iter().copied().find(|flag| flag == arg) else {
                return Err(format!("{name}: unknown flag '{arg}' (see regpipe help {name})"));
            };
            if args.has(flag) {
                return Err(format!("{name}: {flag} given more than once"));
            }
            let value = if SWITCHES.contains(&flag) {
                String::new()
            } else {
                match raw.next() {
                    Some(value) if !value.starts_with("--") => value.clone(),
                    _ if flag == "--corpus" => return Err("--corpus needs a directory".into()),
                    _ => return Err(format!("{name}: {flag} needs a value")),
                }
            };
            args.given.push((flag, value));
        }
        Ok(args)
    }

    /// `flag`'s value, if it was given (empty for a switch).
    fn get(&self, flag: &str) -> Option<&str> {
        debug_assert!(listed_flags(self.help).contains(&flag), "reads unlisted {flag}");
        self.given.iter().find(|(given, _)| *given == flag).map(|(_, value)| value.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    fn operand(&self) -> Result<&str, String> {
        let (name, operand) = (usage_word(self.help, 1), usage_word(self.help, 2));
        self.operand.as_deref().ok_or_else(|| format!("{name}: missing {operand}"))
    }

    /// `flag` parsed as a `T`, or `default` when absent.
    fn value<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.get(flag).map_or(Ok(default), |raw| {
            raw.parse().map_err(|_| format!("bad {flag} value '{raw}'"))
        })
    }

    /// `flag` as an integer of at least `min`, or `default` when absent.
    fn at_least<T>(&self, flag: &str, default: T, min: u8) -> Result<T, String>
    where
        T: FromStr + PartialOrd + From<u8>,
    {
        let Some(raw) = self.get(flag) else { return Ok(default) };
        match raw.parse::<T>() {
            Ok(n) if n >= T::from(min) => Ok(n),
            _ if min == 1 => Err(format!("{flag} must be a positive integer, got '{raw}'")),
            _ => Err(format!("{flag} must be an integer >= {min}, got '{raw}'")),
        }
    }

    /// The comma-separated `flag`, each entry read by `parse`, or `default`.
    fn list<T: Clone>(
        &self,
        flag: &str,
        default: &[T],
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.get(flag).map_or(Ok(default.to_vec()), |raw| raw.split(',').map(parse).collect())
    }

    // The shared axes, each read one way by every verb that lists it.

    fn machine_spec(&self) -> &str {
        self.get("--machine").unwrap_or("p2l4")
    }

    fn machine(&self) -> Result<MachineConfig, String> {
        MachineConfig::parse_spec(self.machine_spec())
    }

    fn scheduler(&self) -> Result<SchedulerKind, String> {
        self.get("--scheduler").map_or(Ok(SchedulerKind::default()), SchedulerKind::parse)
    }

    fn spill_policy(&self) -> Result<SpillPolicyKind, String> {
        self.get("--spill-policy")
            .map_or(Ok(SpillPolicyKind::default()), SpillPolicyKind::parse)
    }

    fn budgets(&self, default: &[u32]) -> Result<Vec<u32>, String> {
        self.list("--budgets", default, |b| {
            b.parse().map_err(|_| format!("bad budget '{b}' in --budgets"))
        })
    }

    fn strategy(&self) -> Result<Strategy, String> {
        self.get("--strategy").map_or(Ok(Strategy::BestOfAll), parse_strategy)
    }

    fn strategies(&self) -> Result<Vec<Strategy>, String> {
        let all = [Strategy::BestOfAll, Strategy::Spill, Strategy::IncreaseIi];
        self.list("--strategies", &all, parse_strategy)
    }

    fn jobs(&self) -> Result<NonZeroUsize, String> {
        resolve_jobs(self.get("--jobs"))
    }

    /// `--scheduler` and `--spill-policy` as compile options.
    fn compile_options(&self) -> Result<CompileOptions, String> {
        let mut options = CompileOptions::with_spill_policy(self.spill_policy()?);
        options.scheduler = self.scheduler()?;
        Ok(options)
    }

    /// The per-request options `replay` and `chaos` send.
    fn replay_config(&self, budgets: &[u32]) -> Result<ReplayConfig, String> {
        Ok(ReplayConfig {
            budgets: self.budgets(budgets)?,
            strategy: self.strategy()?,
            scheduler: self.scheduler()?,
            spill_policy: self.spill_policy()?,
            machine_spec: Some(self.machine_spec().to_string()),
        })
    }

    /// The loops a batch verb runs and their machine: the `--corpus`
    /// directory, whose `.mach` file sets the machine unless `--machine`
    /// is given, or else the `generated` loops. The generator's
    /// `gen_flags` do not apply to a corpus, so giving one is an error
    /// rather than a silently different workload.
    fn workload(
        &self,
        gen_flags: &[&str],
        generated: impl FnOnce() -> Result<Vec<BenchLoop>, String>,
    ) -> Result<(Vec<BenchLoop>, MachineConfig), String> {
        let Some(dir) = self.get("--corpus") else {
            return Ok((generated()?, self.machine()?));
        };
        if let Some(flag) = gen_flags.iter().find(|flag| self.has(flag)) {
            return Err(format!("{flag} does not apply to --corpus (the directory decides)"));
        }
        let corpus = load_corpus(dir).map_err(|e| format!("corpus {dir} is invalid:\n{e}"))?;
        let machine = match corpus.machine {
            Some(machine) if !self.has("--machine") => machine,
            _ => self.machine()?,
        };
        Ok((corpus.loops, machine))
    }

    /// Writes a `BENCH_*.json` report to `--out` (else `default`) and
    /// says so on stdout.
    fn write_report(&self, default: &str, body: &str) -> Result<(), String> {
        let path = self.get("--out").unwrap_or(default);
        fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
        Ok(())
    }
}

fn load(path: &str) -> Result<Ddg, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    textfmt::parse_named(&text, path).map_err(|e| e.to_string())
}

fn cmd_info(args: &Args) -> Result<(), String> {
    let g = load(args.operand()?)?;
    let machine = args.machine()?;
    let scheduler = args.scheduler()?;

    println!(
        "loop '{}': {} ops, {} edges, {} invariants",
        g.name(),
        g.num_ops(),
        g.num_edges(),
        g.num_invariants()
    );
    let labels = ["load", "store", "add", "mul", "div", "sqrt", "copy"];
    let counts = labels.iter().zip(g.kind_histogram()).filter(|&(_, c)| c > 0);
    let mix: Vec<String> = counts.map(|(l, c)| format!("{c} {l}")).collect();
    println!("op mix: {}", mix.join(", "));
    println!(
        "machine {}: ResMII-bound MII = {}, RecMII = {}",
        machine.name(),
        mii(&g, &machine),
        rec_mii(&g, &machine)
    );
    println!("recurrences: {}", regpipe::ddg::algo::recurrences(&g).len());
    let s = scheduler
        .schedule(&g, &machine, &SchedRequest::default())
        .map_err(|e| e.to_string())?;
    let a = allocate(&g, &s);
    println!(
        "unconstrained schedule: II = {}, SC = {}, registers = {} (MaxLive {})",
        s.ii(),
        s.stage_count(),
        a.total(),
        a.max_live()
    );
    Ok(())
}

fn cmd_compile(args: &Args) -> Result<(), String> {
    let g = load(args.operand()?)?;
    let machine = args.machine()?;
    let regs: u32 = args.value("--regs", 32)?;
    let options = CompileOptions { strategy: args.strategy()?, ..args.compile_options()? };

    let compiled = compile(&g, &machine, regs, &options).map_err(|e| e.to_string())?;
    println!(
        "{}: II = {} (MII {}), registers = {}/{}, spilled = {}, strategy = {:?}",
        g.name(),
        compiled.ii(),
        mii(&g, &machine),
        compiled.registers_used(),
        regs,
        compiled.spilled(),
        compiled.strategy_used()
    );
    match args.get("--emit").unwrap_or("kernel") {
        "kernel" => println!("\n{}", compiled.kernel()),
        "pipeline" => println!("\n{}", PipelinedLoop::new(compiled.ddg(), compiled.schedule())),
        "dot" => println!("{}", to_dot(compiled.ddg())),
        "text" => println!("{}", textfmt::format(compiled.ddg())),
        other => return Err(format!("unknown emit mode '{other}'")),
    }
    Ok(())
}

fn cmd_suite(args: &Args) -> Result<(), String> {
    let seed = args.value("--seed", DEFAULT_SEED)?;
    if let Some(dir) = args.get("--dir") {
        // Corpus emission takes only its own knobs.
        let own = ["--dir", "--size", "--seed"];
        if let Some((flag, _)) = args.given.iter().find(|(flag, _)| !own.contains(flag)) {
            return Err(format!("--dir (corpus emission) cannot be combined with {flag}"));
        }
        // It keeps its historical default of 100 files.
        let loops = suite(seed, args.at_least("--size", 100, 1)?);
        write_corpus(dir, &loops)?;
        println!("wrote {} loops to {dir}/", loops.len());
        return Ok(());
    }
    let (loops, machine) = args.workload(&["--size", "--seed"], || {
        // Run mode shares the harness's REGPIPE_SUITE_SIZE default so the
        // CI smoke path sizes the run with one env variable.
        let size = args.get("--size").map(|_| args.at_least("--size", 1, 1));
        Ok(suite(seed, size.unwrap_or_else(suite_size_from_env)?))
    })?;
    let label =
        args.get("--corpus").map_or(format!("seed {seed}"), |dir| format!("corpus {dir}"));
    let req = BatchRequest {
        machine,
        budgets: args.budgets(&[64, 32])?,
        strategies: args.strategies()?,
        options: args.compile_options()?,
        jobs: args.jobs()?,
    };
    let report = run_batch(&loops, &req);

    println!(
        "=== suite evaluation: {} loops ({label}), machine {}, scheduler {} ===",
        report.suite_size, report.machine, report.scheduler
    );
    println!(
        "{:<8} {:<12} {:>7} {:>7} {:>12} {:>12} {:>9} {:>9}",
        "budget", "strategy", "fitted", "failed", "Mcycles", "Mmem-refs", "spilled", "resched"
    );
    for agg in report.aggregates() {
        println!(
            "{:<8} {:<12} {:>7} {:>7} {:>12.1} {:>12.1} {:>9} {:>9}",
            agg.budget,
            agg.strategy.map_or("?", strategy_slug),
            agg.fitted,
            agg.failures,
            agg.cycles as f64 / 1e6,
            agg.memory_refs as f64 / 1e6,
            agg.spilled,
            agg.reschedules
        );
    }
    // Timing for humans goes to stderr, off the byte-comparable stream.
    args.write_report("BENCH_suite.json", &report.to_json(bench_timing()))?;
    eprintln!(
        "compiled {} cells with {} jobs in {:.2}s",
        report.cells.len(),
        report.jobs,
        report.total_wall.as_secs_f64()
    );
    Ok(())
}

/// Parses a `--weights` spec: `const:<w>`, `uniform:<lo>,<hi>`, or
/// `log:<lo>,<hi>`.
fn parse_weights(spec: &str) -> Result<WeightDist, String> {
    fn num<T: FromStr>(raw: &str, what: &str) -> Result<T, String> {
        raw.trim().parse().map_err(|_| format!("bad {what} '{}'", raw.trim()))
    }
    let (kind, rest) =
        spec.split_once(':').ok_or_else(|| format!("bad --weights spec '{spec}'"))?;
    let pair = || {
        rest.split_once(',')
            .ok_or_else(|| format!("--weights {kind}: expected '{kind}:<lo>,<hi>'"))
    };
    match kind {
        "const" => Ok(WeightDist::Constant(num(rest, "constant weight")?)),
        "uniform" => {
            let (lo, hi) = pair()?;
            Ok(WeightDist::Uniform {
                lo: num(lo, "weight bound")?,
                hi: num(hi, "weight bound")?,
            })
        }
        "log" => {
            let (lo, hi) = pair()?;
            Ok(WeightDist::LogUniform {
                lo_exp: num(lo, "exponent")?,
                hi_exp: num(hi, "exponent")?,
            })
        }
        other => Err(format!("unknown weight distribution '{other}'")),
    }
}

/// `regpipe gen`: materialize a knob-controlled synthetic corpus on disk.
fn cmd_gen(args: &Args) -> Result<(), String> {
    let dir = args.get("--out").ok_or("gen: missing --out directory")?;
    let seed = args.value("--seed", DEFAULT_SEED)?;
    let count = args.at_least("--count", 100, 1)?;
    let defaults = GenParams::default();
    let params = GenParams {
        min_ops: args.at_least("--min-ops", defaults.min_ops, 1)?,
        max_ops: args.at_least("--max-ops", defaults.max_ops, 1)?,
        recurrence_density: args.value("--rec-density", defaults.recurrence_density)?,
        max_invariants: args.value("--invariants", defaults.max_invariants)?,
        weights: args.get("--weights").map_or(Ok(defaults.weights), parse_weights)?,
    };
    let loops = generate(seed, count, &params)?;
    write_corpus(dir, &loops)?;
    println!("wrote {} kernels to {dir}/ (seed {seed})", loops.len());
    Ok(())
}

/// `regpipe gap`: heuristic optimality gaps against the exact oracle.
fn cmd_gap(args: &Args) -> Result<(), String> {
    // Small kernels by default: the oracle's search space grows fast with
    // op count, and the gap corpus is about proof coverage, not stress
    // volume.
    let seed: u64 = args.value("--seed", 7)?;
    let count = args.at_least("--count", 100, 1)?;
    let max_ops = args.at_least("--max-ops", 12, 2)?;
    let defaults = GenParams::default();
    let params = GenParams { min_ops: defaults.min_ops.min(max_ops), max_ops, ..defaults };
    let (loops, machine) =
        args.workload(&["--seed", "--count", "--max-ops"], || generate(seed, count, &params))?;
    let config = GapConfig {
        machine,
        node_budget: args.value("--node-budget", regpipe::sched::DEFAULT_NODE_BUDGET)?,
        jobs: args.jobs()?,
        source: args.get("--corpus").map_or_else(
            || format!("gen:seed={seed},count={count},max_ops={max_ops}"),
            |dir| format!("corpus:{dir}"),
        ),
        spill_policy: args.spill_policy()?,
        spill_budget: args.at_least("--spill-budget", DEFAULT_SPILL_BUDGET, 1)?,
    };
    let report = regpipe::bench::run_gap(&loops, &config);
    let proven = report.proven();
    println!(
        "=== optimality gaps: {} loops ({}), machine {}, node budget {} ===",
        report.loops.len(),
        config.source,
        config.machine.name(),
        config.node_budget
    );
    println!(
        "proven optimal: {proven}/{} loops ({} search nodes)",
        report.loops.len(),
        report.nodes_total()
    );
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>16}",
        "sched", "II-optimal", "sum II gap", "sum SC gap", "sum MaxLive gap"
    );
    for a in report.aggregates() {
        println!(
            "{:<8} {:>7}/{proven} {:>12} {:>12} {:>16}",
            a.scheduler.slug(),
            a.ii_optimal,
            a.ii_gap_total,
            a.sc_gap_total,
            a.max_live_gap_total
        );
    }
    println!(
        "spill policies (budget {}, {} comparable loops, deltas vs {}):",
        config.spill_budget,
        report.spill_comparable(),
        config.spill_policy
    );
    println!(
        "{:<18} {:>7} {:>12} {:>9} {:>10} {:>7}",
        "policy", "fitted", "sum spilled", "d-spill", "sum II", "d-II"
    );
    for a in report.spill_aggregates() {
        println!(
            "{:<18} {:>7} {:>12} {:>+9} {:>10} {:>+7}",
            a.policy.slug(),
            a.fitted,
            a.spilled_total,
            a.spilled_delta,
            a.ii_total,
            a.ii_delta
        );
    }
    args.write_report("BENCH_gap.json", &report.to_json())
}

/// `regpipe check`: validate a corpus directory without compiling.
fn cmd_check(args: &Args) -> Result<(), String> {
    let dir = args.operand()?;
    let corpus = match load_corpus(dir) {
        Ok(corpus) => corpus,
        Err(e) => {
            for file_error in &e.errors {
                eprintln!("{file_error}");
            }
            let n = e.errors.len();
            return Err(format!("corpus {dir} has {n} error{}", if n == 1 { "" } else { "s" }));
        }
    };
    let ops: usize = corpus.loops.iter().map(|l| l.ddg.num_ops()).sum();
    let machine =
        corpus.machine.map_or("none (default applies)".to_string(), |m| m.to_string());
    println!("corpus {dir}: OK");
    println!("  loops:   {} ({ops} ops total)", corpus.loops.len());
    println!("  machine: {machine}");
    Ok(())
}

/// `regpipe serve`: the persistent compile daemon.
fn cmd_serve(args: &Args) -> Result<(), String> {
    // A malformed fault plan is a configuration error, not "no faults".
    regpipe::serve::fault::validate_env()?;
    let d = ServeOptions::default();
    let deadline_ms = args.has("--deadline-ms").then(|| args.at_least("--deadline-ms", 1, 1));
    let server = Server::open(ServeOptions {
        cache: !args.has("--no-cache"),
        capacity_bytes: args.at_least("--cache-bytes", d.capacity_bytes, 1)?,
        shards: args.at_least("--shards", d.shards, 1)?,
        max_request_bytes: args.at_least("--max-request-bytes", d.max_request_bytes, 1)?,
        cache_dir: args.get("--cache-dir").map(PathBuf::from),
        deadline_ms: deadline_ms.transpose()?,
        compact_appends: args.at_least("--compact-appends", d.compact_appends, 1)?,
        drain_ms: args.at_least("--drain-ms", d.drain_ms, 1)?,
        default_spill_policy: args.spill_policy()?,
    })?;
    match args.get("--socket") {
        None => serve_stdin(&server).map_err(|e| format!("serve: {e}")),
        Some(path) => {
            #[cfg(unix)]
            {
                eprintln!("regpipe serve: listening on {path}");
                regpipe::serve::serve_socket(&server, std::path::Path::new(path))
                    .map_err(|e| format!("serve: cannot listen on {path}: {e}"))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err("serve: --socket requires a unix platform".into())
            }
        }
    }
}

/// `regpipe replay`: drive a request stream at a daemon.
fn cmd_replay(args: &Args) -> Result<(), String> {
    let seed = args.value("--seed", DEFAULT_SEED)?;
    let count = args.at_least("--count", 100, 1)?;
    let repeat = args.at_least("--repeat", 1, 1)?;
    let jobs = args.jobs()?;
    let config = args.replay_config(&[32])?;
    let (source, ids) = match (args.get("--file"), args.get("--source").unwrap_or("gen")) {
        (Some(path), _) => (ReplaySource::File(path.to_string()), IdPolicy::Verbatim),
        (None, "gen") => (ReplaySource::Gen { seed, count }, IdPolicy::Stream),
        (None, "suite") => (ReplaySource::Suite { seed, size: count }, IdPolicy::Stream),
        (None, other) => return Err(format!("unknown --source '{other}' (gen|suite)")),
    };
    let base = base_requests(&source, &config)?;
    if base.is_empty() {
        return Err("replay: empty request stream".into());
    }
    let retry = RetryPolicy {
        attempts: args.at_least("--retry", 1, 1)?,
        backoff_ms: args.value("--backoff-ms", 50)?,
        seed,
    };

    let (outcome, stats) = match args.get("--socket") {
        None => {
            let server = Server::open(ServeOptions {
                cache: !args.has("--no-cache"),
                cache_dir: args.get("--cache-dir").map(PathBuf::from),
                default_spill_policy: config.spill_policy,
                ..ServeOptions::default()
            })?;
            let outcome = replay_in_process(&server, &base, repeat, jobs, ids);
            (outcome, server.stats_payload())
        }
        Some(path) => {
            #[cfg(unix)]
            {
                let path = std::path::Path::new(path);
                let outcome = replay_socket(path, &base, repeat, jobs, ids, retry)
                    .map_err(|e| format!("replay: {e}"))?;
                let stats = request_once(path, "{\"op\":\"stats\"}")
                    .map_err(|e| format!("replay: stats request failed: {e}"))?;
                if args.has("--shutdown") {
                    request_once(path, "{\"op\":\"shutdown\"}")
                        .map_err(|e| format!("replay: shutdown request failed: {e}"))?;
                }
                (outcome, stats)
            }
            #[cfg(not(unix))]
            {
                let _ = (path, retry);
                return Err("replay: --socket requires a unix platform".into());
            }
        }
    };

    // Responses in request order: the byte-comparable stream.
    let mut out = std::io::stdout().lock();
    let written = outcome.responses.iter().try_for_each(|line| writeln!(out, "{line}"));
    written.and_then(|()| out.flush()).map_err(|e| format!("replay: {e}"))?;
    if let Some(path) = args.get("--stats-out") {
        fs::write(path, format!("{stats}\n"))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    eprintln!(
        "replayed {} requests ({} x {repeat} passes) in {:.2}s",
        outcome.responses.len(),
        base.len(),
        outcome.wall_us as f64 / 1e6
    );
    Ok(())
}

/// `regpipe chaos`: the deterministic crash-recovery gate.
#[cfg(unix)]
fn cmd_chaos(args: &Args) -> Result<(), String> {
    let pid = std::process::id();
    let path_or_temp = |flag: &str, temp: String| {
        args.get(flag).map_or_else(|| std::env::temp_dir().join(temp), PathBuf::from)
    };
    let config = ChaosConfig {
        exe: std::env::current_exe()
            .map_err(|e| format!("chaos: cannot locate the regpipe binary: {e}"))?,
        socket: path_or_temp("--socket", format!("regpipe-chaos-{pid}.sock")),
        cache_dir: path_or_temp("--cache-dir", format!("regpipe-chaos-cache-{pid}")),
        cycles: args.at_least("--cycles", 3, 1)?,
        seed: args.value("--seed", 7)?,
        count: args.at_least("--count", 12, 4)?,
        jobs: args.jobs()?,
        replay: args.replay_config(&[32])?,
    };
    let result = run_chaos(&config);
    if !args.has("--cache-dir") {
        let _ = fs::remove_dir_all(&config.cache_dir);
    }
    let report = result?;
    if let Some(path) = args.get("--out") {
        write_responses(std::path::Path::new(path), &report.final_responses)?;
    }
    println!("{}", report.render_json());
    Ok(())
}

/// `regpipe chaos` spawns daemons over unix sockets; nothing to gate
/// elsewhere.
#[cfg(not(unix))]
fn cmd_chaos(_args: &Args) -> Result<(), String> {
    Err("chaos: requires a unix platform".into())
}
