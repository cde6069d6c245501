//! The request/response core of the daemon: one JSON line in, one JSON
//! line out, cache-first, crash-only.
//!
//! Every failure a request can provoke is turned into a structured
//! `{"ok":false,"error":{"kind":...,"message":...}}` response on the
//! same connection: malformed lines ([`ErrorKind::Protocol`]), oversized
//! lines ([`ErrorKind::Oversized`]), bad compile parameters
//! ([`ErrorKind::Invalid`]), blown deadlines ([`ErrorKind::Deadline`]),
//! and engine panics ([`ErrorKind::Internal`] — caught per-request, the
//! daemon keeps serving). With `cache_dir` set, the in-memory LRU is
//! backed by the corruption-tolerant [`crate::store`] append log.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once};
use std::time::Duration;

use regpipe_core::{compile, CompileOptions, SpillPolicyKind, Strategy};
use regpipe_ddg::{content_hash, textfmt, Ddg, OpKind};
use regpipe_exec::json::{parse as parse_json, Value};
use regpipe_exec::{parse_strategy, strategy_slug};
use regpipe_machine::{FuClass, MachineConfig};
use regpipe_sched::{deadline, SchedulerKind};

use crate::cache::{AliasMap, CacheKey, RawText, ShardedCache};
use crate::fault;
use crate::store::Store;

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Whether the result cache is consulted at all. Responses are
    /// byte-identical either way — the cache only changes how often the
    /// engine runs (the determinism gate compares exactly this).
    pub cache: bool,
    /// Total cache budget in approximate resident bytes, split evenly
    /// across shards.
    pub capacity_bytes: usize,
    /// Number of independent cache shards.
    pub shards: usize,
    /// Hard bound on one request line; longer lines are answered with a
    /// structured error and never buffered whole.
    pub max_request_bytes: usize,
    /// Directory for the persistent cache store (`--cache-dir`). `None`
    /// keeps the cache memory-only; `Some` makes every insert durable
    /// and rewarms the cache from disk at startup. Requires `cache`.
    pub cache_dir: Option<PathBuf>,
    /// Cooperative per-compile deadline in milliseconds
    /// (`--deadline-ms`). A compile that exceeds it is cancelled at the
    /// next scheduler check-point and answered with a `deadline` error.
    pub deadline_ms: Option<u64>,
}

/// Appends to the active log segment before a compaction snapshot is
/// written.
const COMPACT_APPENDS: u64 = 8192;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            cache: true,
            capacity_bytes: 64 << 20,
            shards: 8,
            max_request_bytes: 1 << 20,
            cache_dir: None,
            deadline_ms: None,
        }
    }
}

/// The failure taxonomy carried in every `{"ok":false}` response's
/// `error.kind` field. Clients branch on the kind; the `message` is for
/// humans and makes no stability promise.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorKind {
    /// The line was not a usable request: invalid JSON, missing or
    /// non-string `op`, unknown `op`.
    Protocol,
    /// The line exceeded the configured request byte bound.
    Oversized,
    /// A well-formed `compile` request with bad parameters (unparsable
    /// ddg, unknown machine/scheduler/strategy, bad budget).
    Invalid,
    /// The compile exceeded the configured `--deadline-ms` budget and
    /// was cancelled cooperatively.
    Deadline,
    /// The compile panicked; the panic was caught and the daemon keeps
    /// serving. Never expected — always worth a bug report.
    Internal,
}

impl ErrorKind {
    /// The wire spelling of the kind.
    pub fn slug(self) -> &'static str {
        match self {
            ErrorKind::Protocol => "protocol",
            ErrorKind::Oversized => "oversized",
            ErrorKind::Invalid => "invalid",
            ErrorKind::Deadline => "deadline",
            ErrorKind::Internal => "internal",
        }
    }
}

/// One answered request: the response line (no trailing newline) and
/// whether the daemon should stop accepting work.
#[derive(Clone, Debug)]
pub struct Response {
    /// The JSON response line.
    pub line: String,
    /// `true` exactly for an acknowledged `shutdown` request.
    pub shutdown: bool,
}

impl Response {
    fn reply(line: String) -> Response {
        Response { line, shutdown: false }
    }
}

/// The compile daemon's state: options, the sharded result cache, the
/// optional persistent store, and request counters. All methods take
/// `&self`; one `Server` is shared by every connection thread.
pub struct Server {
    options: ServeOptions,
    cache: ShardedCache,
    /// Raw `ddg` text → canonical hash; `None` under `--no-cache`.
    aliases: Option<AliasMap>,
    store: Option<Mutex<Store>>,
    compile_requests: AtomicU64,
    protocol_errors: AtomicU64,
    panics_caught: AtomicU64,
    deadline_exceeded: AtomicU64,
    active_connections: AtomicU64,
    shutdown: AtomicBool,
}

/// RAII registration of one live connection (see
/// [`Server::track_connection`]); dropping it deregisters.
pub struct ConnectionGuard<'a> {
    server: &'a Server,
}

impl Drop for ConnectionGuard<'_> {
    fn drop(&mut self) {
        self.server.active_connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Silences the panic-hook report for cooperative deadline unwinds (they
/// are control flow, not failures) while delegating every real panic to
/// the previous hook. Installed once per process, only when a deadline
/// is actually configured.
fn install_deadline_panic_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !deadline::is_deadline_panic(info.payload()) {
                prev(info);
            }
        }));
    });
}

/// Best-effort human text from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "(non-string panic payload)"
    }
}

impl Server {
    /// A fresh server with the given options.
    ///
    /// # Panics
    ///
    /// Panics if `options` name a persistent `cache_dir` that cannot be
    /// opened — use [`Server::open`] to handle that case; memory-only
    /// construction cannot fail.
    pub fn new(options: ServeOptions) -> Server {
        Server::open(options).expect("memory-only server construction cannot fail")
    }

    /// Opens a server, recovering the persistent cache when `cache_dir`
    /// is set. Corrupt store *content* never fails this — damage is
    /// dropped, counted, and (when anything was dropped) immediately
    /// scrubbed from disk by a compaction.
    ///
    /// # Errors
    ///
    /// `cache_dir` together with `cache: false`, or an environmental
    /// store failure (directory not creatable/writable).
    pub fn open(options: ServeOptions) -> Result<Server, String> {
        if options.cache_dir.is_some() && !options.cache {
            return Err("a persistent cache dir requires the cache (drop --no-cache)".into());
        }
        let shards = options.shards.max(1);
        let cache = ShardedCache::new(shards, options.capacity_bytes);
        let store = match &options.cache_dir {
            None => None,
            Some(dir) => {
                let (mut store, recovered) = Store::open(dir)
                    .map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
                // Replay order = append order, so recency survives restarts.
                for entry in recovered {
                    cache.insert(entry.key, entry.payload);
                }
                if store.counters().dropped_corrupt_entries > 0 {
                    // Self-healing: rewrite the surviving entries so the
                    // damaged bytes never have to be skipped again.
                    store.compact(&cache.dump()).map_err(|e| {
                        format!("cache dir {}: compaction failed: {e}", dir.display())
                    })?;
                }
                Some(Mutex::new(store))
            }
        };
        if options.deadline_ms.is_some() {
            install_deadline_panic_hook();
        }
        let aliases = options.cache.then(|| AliasMap::new(shards, options.capacity_bytes));
        Ok(Server {
            options,
            cache,
            aliases,
            store,
            compile_requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            panics_caught: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            active_connections: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The configured per-request byte bound.
    pub fn max_request_bytes(&self) -> usize {
        self.options.max_request_bytes
    }

    /// Whether a `shutdown` request has been acknowledged.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Registers a live connection for the drain accounting; the guard
    /// deregisters on drop.
    pub fn track_connection(&self) -> ConnectionGuard<'_> {
        self.active_connections.fetch_add(1, Ordering::SeqCst);
        ConnectionGuard { server: self }
    }

    /// Connections currently registered via [`Server::track_connection`].
    pub fn active_connections(&self) -> u64 {
        self.active_connections.load(Ordering::SeqCst)
    }

    /// Answers one request line. Never panics on malformed input: every
    /// protocol problem becomes a structured `{"ok":false,...}` response.
    pub fn handle_line(&self, line: &str) -> Response {
        if line.len() > self.options.max_request_bytes {
            return Response::reply(self.oversized_response(line.len()));
        }
        let doc = match parse_json(line) {
            Ok(doc) => doc,
            Err(e) => {
                return Response::reply(self.error_response(
                    None,
                    ErrorKind::Protocol,
                    &format!("invalid JSON: {e}"),
                ))
            }
        };
        let id = doc.get("id").and_then(Value::as_i64);
        let op = match doc.get("op").and_then(Value::as_str) {
            Some(op) => op,
            None => {
                return Response::reply(self.error_response(
                    id,
                    ErrorKind::Protocol,
                    "missing or non-string 'op' field",
                ))
            }
        };
        match op {
            "compile" => Response::reply(self.handle_compile(id, &doc)),
            "stats" => Response::reply(attach_id(id, &self.stats_payload())),
            "ping" => Response::reply(attach_id(id, "{\"ok\":true,\"op\":\"pong\"}")),
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.sync_store();
                // The requesting connection is not "drained" — it gets
                // this very response; everyone else is.
                let drained = self.active_connections().saturating_sub(1);
                Response {
                    line: attach_id(
                        id,
                        &format!(
                            "{{\"ok\":true,\"op\":\"shutdown\",\"drained_connections\":{drained}}}"
                        ),
                    ),
                    shutdown: true,
                }
            }
            other => Response::reply(self.error_response(
                id,
                ErrorKind::Protocol,
                &format!("unknown op '{other}' (compile|stats|ping|shutdown)"),
            )),
        }
    }

    /// The structured error for a request line that exceeded the byte
    /// bound (used both by [`Server::handle_line`] and by the daemon's
    /// bounded reader, which discards such lines without buffering them).
    pub fn oversized_response(&self, got: usize) -> String {
        self.error_response(
            None,
            ErrorKind::Oversized,
            &format!(
                "request of {got} bytes exceeds the {}-byte limit",
                self.options.max_request_bytes
            ),
        )
    }

    fn error_response(&self, id: Option<i64>, kind: ErrorKind, message: &str) -> String {
        // Historical name; counts every structured error response.
        self.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let mut pairs = Vec::new();
        if let Some(id) = id {
            pairs.push(("id".to_string(), Value::Int(id)));
        }
        pairs.push(("ok".to_string(), Value::Bool(false)));
        pairs.push((
            "error".to_string(),
            Value::Object(vec![
                ("kind".to_string(), Value::Str(kind.slug().to_string())),
                ("message".to_string(), Value::Str(message.to_string())),
            ]),
        ));
        Value::Object(pairs).render()
    }

    fn handle_compile(&self, id: Option<i64>, doc: &Value) -> String {
        let mut params = match CompileParams::from_request(doc, self.aliases.as_ref()) {
            Ok(p) => p,
            Err(e) => return self.error_response(id, ErrorKind::Invalid, &e),
        };
        self.compile_requests.fetch_add(1, Ordering::Relaxed);
        // The fault layer counts *requests* (not misses), so an injected
        // panic fires at the same request index whether the cache is cold
        // or rewarmed — fault plans stay deterministic across restarts.
        let inject_panic = fault::global().is_some_and(|f| f.on_compile());
        let deadline_budget = self.options.deadline_ms.map(Duration::from_millis);
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected fault: compile panic");
            }
            let _guard = deadline_budget.map(deadline::arm);
            self.cached_payload(&mut params)
        }));
        match result {
            Ok(Ok(payload)) => attach_id(id, &payload),
            Ok(Err(e)) => self.error_response(id, ErrorKind::Invalid, &e),
            Err(panic) if deadline::is_deadline_panic(panic.as_ref()) => {
                // Cancelled cooperatively; nothing was cached, so a retry
                // with a larger budget starts clean.
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                self.error_response(
                    id,
                    ErrorKind::Deadline,
                    &format!(
                        "compile exceeded the {} ms deadline",
                        self.options.deadline_ms.unwrap_or(0)
                    ),
                )
            }
            Err(panic) => {
                // Panic isolation: the unwind is contained to this
                // request; the daemon keeps serving.
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                self.error_response(
                    id,
                    ErrorKind::Internal,
                    &format!("compile panicked: {}", panic_message(panic.as_ref())),
                )
            }
        }
    }

    /// Cache-first payload lookup; misses compile outside any shard lock
    /// (a concurrent miss on the same key computes the identical payload)
    /// and are written through to the persistent store when one is open.
    ///
    /// # Errors
    ///
    /// The `bad ddg` message, for an aliased text that fails to parse on
    /// a miss: reachable only through a collision in the alias key.
    fn cached_payload(&self, params: &mut CompileParams) -> Result<String, String> {
        if !self.options.cache {
            return Ok(params.compute_payload());
        }
        if let Some(hit) = self.cache.get(&params.cache_key()) {
            return Ok(hit);
        }
        params.parse_if_aliased()?;
        let computed = params.compute_payload();
        let key = params.cache_key();
        self.cache.insert(key.clone(), computed.clone());
        self.persist(&key, &computed);
        Ok(computed)
    }

    /// Writes one computed entry through to the store and compacts when
    /// the active segment has absorbed enough appends. Store I/O errors
    /// never fail the request — the entry stays served from memory.
    fn persist(&self, key: &CacheKey, payload: &str) {
        let Some(store) = &self.store else { return };
        let mut store = store.lock().expect("store poisoned");
        if let Err(e) = store.append(key, payload) {
            eprintln!("regpipe serve: cache store append failed: {e}");
            return;
        }
        if store.active_appends() >= COMPACT_APPENDS {
            let live = self.cache.dump();
            if let Err(e) = store.compact(&live) {
                eprintln!("regpipe serve: cache store compaction failed: {e}");
            }
        }
    }

    /// Fsyncs the persistent log (shutdown durability); no-op without a
    /// store.
    fn sync_store(&self) {
        if let Some(store) = &self.store {
            if let Err(e) = store.lock().expect("store poisoned").sync() {
                eprintln!("regpipe serve: cache store fsync failed: {e}");
            }
        }
    }

    /// The `stats` response payload: per-shard and total cache counters,
    /// request counts, robustness counters, and (when persistent) the
    /// store's durability counters. When the cache is enabled,
    /// `hits + misses == compile_requests` holds at any quiescent point.
    pub fn stats_payload(&self) -> String {
        let shards = self.cache.shard_stats();
        let totals = self.cache.totals();
        let store_counters =
            self.store.as_ref().map(|s| s.lock().expect("store poisoned").counters());
        let shard_values = shards
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("hits".to_string(), Value::uint(s.hits)),
                    ("misses".to_string(), Value::uint(s.misses)),
                    ("evictions".to_string(), Value::uint(s.evictions)),
                    ("entries".to_string(), Value::uint(s.entries)),
                    ("bytes".to_string(), Value::uint(s.bytes)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("ok".to_string(), Value::Bool(true)),
            ("op".to_string(), Value::Str("stats".into())),
            ("cache_enabled".to_string(), Value::Bool(self.options.cache)),
            ("capacity_bytes".to_string(), Value::uint(self.options.capacity_bytes as u64)),
            (
                "max_request_bytes".to_string(),
                Value::uint(self.options.max_request_bytes as u64),
            ),
            (
                "compile_requests".to_string(),
                Value::uint(self.compile_requests.load(Ordering::Relaxed)),
            ),
            (
                "protocol_errors".to_string(),
                Value::uint(self.protocol_errors.load(Ordering::Relaxed)),
            ),
            (
                "panics_caught".to_string(),
                Value::uint(self.panics_caught.load(Ordering::Relaxed)),
            ),
            (
                "deadline_exceeded".to_string(),
                Value::uint(self.deadline_exceeded.load(Ordering::Relaxed)),
            ),
            (
                "alias_entries".to_string(),
                Value::uint(self.aliases.as_ref().map_or(0, AliasMap::len)),
            ),
            ("persistent".to_string(), Value::Bool(store_counters.is_some())),
            (
                "store".to_string(),
                match store_counters {
                    None => Value::Null,
                    Some(c) => Value::Object(vec![
                        ("recovered_entries".to_string(), Value::uint(c.recovered_entries)),
                        (
                            "dropped_corrupt_entries".to_string(),
                            Value::uint(c.dropped_corrupt_entries),
                        ),
                        ("log_compactions".to_string(), Value::uint(c.log_compactions)),
                    ]),
                },
            ),
            (
                "totals".to_string(),
                Value::Object(vec![
                    ("hits".to_string(), Value::uint(totals.hits)),
                    ("misses".to_string(), Value::uint(totals.misses)),
                    ("evictions".to_string(), Value::uint(totals.evictions)),
                    ("entries".to_string(), Value::uint(totals.entries)),
                    ("bytes".to_string(), Value::uint(totals.bytes)),
                ]),
            ),
            ("shards".to_string(), Value::Array(shard_values)),
        ])
        .render()
    }
}

/// Splices an `id` field into an already rendered response payload (a
/// non-empty JSON object). Cached payloads are stored id-free, so a hit
/// and a miss produce the same bytes for the same request id.
pub fn attach_id(id: Option<i64>, payload: &str) -> String {
    debug_assert!(payload.starts_with('{') && payload.len() > 2);
    match id {
        None => payload.to_string(),
        Some(id) => format!("{{\"id\":{id},{}", &payload[1..]),
    }
}

/// The canonical machine identity string used in cache keys: unit counts,
/// latencies, and pipelining flags — the fields that determine scheduling
/// behavior — but *not* the display name, so `p2l4` and an identically
/// configured custom machine share cache entries.
pub fn machine_key(machine: &MachineConfig) -> String {
    use std::fmt::Write as _;
    let mut out = String::from(if machine.is_uniform() { "uniform" } else { "classed" });
    out.push_str(";u=");
    for class in FuClass::ALL {
        let _ = write!(out, "{},", machine.units(class));
    }
    out.push_str(";l=");
    for kind in OpKind::ALL {
        let _ = write!(out, "{},", machine.latency(kind));
    }
    out.push_str(";p=");
    for class in FuClass::ALL {
        out.push(if machine.is_pipelined(class) { '1' } else { '0' });
    }
    out
}

/// A compile request with every field validated. Its `ddg` text is
/// parsed here unless the alias map already knows the text's canonical
/// hash; then it is parsed only if the cache misses.
struct CompileParams<'a> {
    text: &'a str,
    /// The parsed loop; `None` while `ddg_hash` comes from an alias.
    ddg: Option<Ddg>,
    ddg_hash: u64,
    machine: MachineConfig,
    scheduler: SchedulerKind,
    strategy: Strategy,
    spill_policy: SpillPolicyKind,
    budget: u32,
}

fn parse_ddg(text: &str) -> Result<Ddg, String> {
    textfmt::parse(text).map_err(|e| format!("compile: bad ddg: {e}"))
}

impl<'a> CompileParams<'a> {
    /// Validates `doc`'s fields in a fixed order, `ddg` first. An aliased
    /// text is known to parse, so skipping its parse never changes which
    /// error a request gets.
    fn from_request(
        doc: &'a Value,
        aliases: Option<&AliasMap>,
    ) -> Result<CompileParams<'a>, String> {
        let text = doc
            .get("ddg")
            .and_then(Value::as_str)
            .ok_or("compile: missing string 'ddg' field")?;
        let raw = aliases.map(|aliases| (aliases, RawText::of(text)));
        let (ddg, ddg_hash) = match raw.and_then(|(aliases, raw)| aliases.get(raw)) {
            Some(ddg_hash) => (None, ddg_hash),
            None => {
                let ddg = parse_ddg(text)?;
                let ddg_hash = content_hash(&ddg);
                if let Some((aliases, raw)) = raw {
                    aliases.insert(raw, ddg_hash);
                }
                (Some(ddg), ddg_hash)
            }
        };
        let machine = match doc.get("machine") {
            None => MachineConfig::p2l4(),
            Some(v) => {
                let spec = v.as_str().ok_or("compile: 'machine' must be a string")?;
                MachineConfig::parse_spec(spec).map_err(|e| format!("compile: {e}"))?
            }
        };
        let scheduler = match doc.get("scheduler") {
            None => SchedulerKind::default(),
            Some(v) => {
                let slug = v.as_str().ok_or("compile: 'scheduler' must be a string")?;
                SchedulerKind::parse(slug).map_err(|e| format!("compile: {e}"))?
            }
        };
        let strategy = match doc.get("strategy") {
            None => Strategy::BestOfAll,
            Some(v) => {
                let slug = v.as_str().ok_or("compile: 'strategy' must be a string")?;
                parse_strategy(slug).map_err(|e| format!("compile: {e}"))?
            }
        };
        let spill_policy = match doc.get("spill_policy") {
            None => SpillPolicyKind::default(),
            Some(v) => {
                let slug = v.as_str().ok_or("compile: 'spill_policy' must be a string")?;
                SpillPolicyKind::parse(slug).map_err(|e| format!("compile: {e}"))?
            }
        };
        let budget = match doc.get("budget") {
            None => 32,
            Some(v) => {
                u32::try_from(v.as_i64().ok_or("compile: 'budget' must be a positive integer")?)
                    .ok()
                    .filter(|&b| b > 0)
                    .ok_or("compile: 'budget' must be a positive integer")?
            }
        };
        Ok(CompileParams {
            text,
            ddg,
            ddg_hash,
            machine,
            scheduler,
            strategy,
            spill_policy,
            budget,
        })
    }

    /// Parses an aliased text, on a cache miss. The fresh hash replaces
    /// the alias's; they differ only if two texts collide in the alias
    /// key.
    fn parse_if_aliased(&mut self) -> Result<(), String> {
        if self.ddg.is_none() {
            let ddg = parse_ddg(self.text)?;
            self.ddg_hash = content_hash(&ddg);
            self.ddg = Some(ddg);
        }
        Ok(())
    }

    fn cache_key(&self) -> CacheKey {
        CacheKey {
            ddg_hash: self.ddg_hash,
            machine: machine_key(&self.machine),
            scheduler: self.scheduler.slug().to_string(),
            strategy: strategy_slug(self.strategy).to_string(),
            spill_policy: self.spill_policy.slug().to_string(),
            budget: self.budget,
        }
    }

    /// The id-free response payload: a pure, deterministic function of the
    /// request — the property the cache-on/off byte-identity gate rests on.
    fn compute_payload(&self) -> String {
        let mut options = CompileOptions {
            strategy: self.strategy,
            scheduler: self.scheduler,
            ..CompileOptions::default()
        };
        options.spill.policy = self.spill_policy;
        let mut pairs = vec![
            ("ok".to_string(), Value::Bool(true)),
            ("ddg_hash".to_string(), Value::Str(format!("{:016x}", self.ddg_hash))),
        ];
        let ddg = self.ddg.as_ref().expect("a compile parses its loop first");
        match compile(ddg, &self.machine, self.budget, &options) {
            Ok(c) => {
                pairs.push(("status".to_string(), Value::Str("fitted".into())));
                pairs.push(("ii".to_string(), Value::uint(u64::from(c.ii()))));
                pairs.push(("regs".to_string(), Value::uint(u64::from(c.registers_used()))));
                pairs.push(("spilled".to_string(), Value::uint(u64::from(c.spilled()))));
                pairs
                    .push(("reschedules".to_string(), Value::uint(u64::from(c.reschedules()))));
                pairs.push(("memory_ops".to_string(), Value::uint(u64::from(c.memory_ops()))));
                pairs.push((
                    "strategy_used".to_string(),
                    Value::Str(strategy_slug(c.strategy_used()).into()),
                ));
            }
            Err(e) => {
                pairs.push(("status".to_string(), Value::Str("failed".into())));
                pairs.push(("error".to_string(), Value::Str(e.to_string())));
            }
        }
        Value::Object(pairs).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(ddg: &str, budget: u32) -> String {
        Value::Object(vec![
            ("id".to_string(), Value::Int(1)),
            ("op".to_string(), Value::Str("compile".into())),
            ("ddg".to_string(), Value::Str(ddg.into())),
            ("budget".to_string(), Value::uint(u64::from(budget))),
        ])
        .render()
    }

    const LOOP: &str = "loop t\nop ld load\nop a add\nop st store\n\
                        edge ld -> a reg 0\nedge a -> st reg 0\n";

    #[test]
    fn compile_request_round_trips_and_caches() {
        let server = Server::new(ServeOptions::default());
        let first = server.handle_line(&request(LOOP, 32));
        let second = server.handle_line(&request(LOOP, 32));
        assert_eq!(first.line, second.line);
        assert!(first.line.contains("\"status\":\"fitted\""), "{}", first.line);
        assert!(first.line.starts_with("{\"id\":1,\"ok\":true,"));
        let doc = parse_json(&first.line).unwrap();
        assert_eq!(doc.get("id").unwrap().as_i64(), Some(1));
        assert!(doc.get("ii").unwrap().as_i64().unwrap() >= 1);
        let stats = parse_json(&server.stats_payload()).unwrap();
        let totals = stats.get("totals").unwrap();
        assert_eq!(totals.get("hits").unwrap().as_i64(), Some(1));
        assert_eq!(totals.get("misses").unwrap().as_i64(), Some(1));
        assert_eq!(stats.get("compile_requests").unwrap().as_i64(), Some(2));
    }

    #[test]
    fn cache_on_and_off_answer_identically() {
        let on = Server::new(ServeOptions::default());
        let off = Server::new(ServeOptions { cache: false, ..ServeOptions::default() });
        for budget in [64, 32, 4] {
            let a = on.handle_line(&request(LOOP, budget));
            let b = off.handle_line(&request(LOOP, budget));
            assert_eq!(a.line, b.line);
        }
        // The disabled cache never counted anything.
        let stats = parse_json(&off.stats_payload()).unwrap();
        assert_eq!(stats.get("cache_enabled").unwrap().as_bool(), Some(false));
        assert_eq!(stats.get("totals").unwrap().get("misses").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn malformed_lines_get_structured_errors() {
        let server = Server::new(ServeOptions::default());
        for (line, kind, want) in [
            ("not json", "protocol", "invalid JSON"),
            ("{\"id\":3}", "protocol", "missing or non-string 'op'"),
            ("{\"op\":\"warp\"}", "protocol", "unknown op"),
            ("{\"op\":\"compile\"}", "invalid", "missing string 'ddg'"),
            ("{\"op\":\"compile\",\"ddg\":\"op x zap\"}", "invalid", "bad ddg"),
            (
                "{\"op\":\"compile\",\"ddg\":\"loop l\\nop x add\\n\",\"budget\":0}",
                "invalid",
                "budget",
            ),
            (
                "{\"op\":\"compile\",\"ddg\":\"loop l\\nop x add\\n\",\"machine\":\"m9\"}",
                "invalid",
                "unknown machine",
            ),
            (
                "{\"op\":\"compile\",\"ddg\":\"loop l\\nop x add\\n\",\"scheduler\":\"x\"}",
                "invalid",
                "scheduler",
            ),
            (
                "{\"op\":\"compile\",\"ddg\":\"loop l\\nop x add\\n\",\"spill_policy\":\"y\"}",
                "invalid",
                "unknown spill policy",
            ),
        ] {
            let r = server.handle_line(line);
            assert!(!r.shutdown);
            assert!(r.line.contains("\"ok\":false"), "{line} -> {}", r.line);
            let doc = parse_json(&r.line).expect("error responses are valid JSON");
            let error = doc.get("error").expect("error object");
            assert_eq!(error.get("kind").unwrap().as_str(), Some(kind), "{line} -> {}", r.line);
            let message = error.get("message").unwrap().as_str().unwrap();
            assert!(message.contains(want), "{line} -> {message}");
        }
        let stats = parse_json(&server.stats_payload()).unwrap();
        assert_eq!(stats.get("protocol_errors").unwrap().as_i64(), Some(9));
        assert_eq!(stats.get("compile_requests").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn error_responses_echo_a_parsable_id() {
        let server = Server::new(ServeOptions::default());
        let r = server.handle_line("{\"id\":42,\"op\":\"warp\"}");
        assert!(r.line.starts_with("{\"id\":42,\"ok\":false"), "{}", r.line);
    }

    #[test]
    fn oversized_lines_are_rejected_with_a_structured_error() {
        let server =
            Server::new(ServeOptions { max_request_bytes: 128, ..ServeOptions::default() });
        let big = format!("{{\"op\":\"compile\",\"ddg\":\"{}\"}}", "x".repeat(500));
        let r = server.handle_line(&big);
        assert!(r.line.contains("\"ok\":false"));
        assert!(r.line.contains("exceeds the 128-byte limit"), "{}", r.line);
    }

    #[test]
    fn ping_stats_and_shutdown_ops_answer() {
        let server = Server::new(ServeOptions::default());
        assert_eq!(
            server.handle_line("{\"op\":\"ping\"}").line,
            "{\"ok\":true,\"op\":\"pong\"}"
        );
        assert!(!server.is_shutdown());
        let r = server.handle_line("{\"id\":9,\"op\":\"shutdown\"}");
        assert!(r.shutdown);
        assert!(server.is_shutdown());
        assert_eq!(
            r.line,
            "{\"id\":9,\"ok\":true,\"op\":\"shutdown\",\"drained_connections\":0}"
        );
        let stats = server.handle_line("{\"op\":\"stats\"}");
        parse_json(&stats.line).expect("stats is valid JSON");
    }

    #[test]
    fn connection_tracking_feeds_the_drain_count() {
        let server = Server::new(ServeOptions::default());
        let _a = server.track_connection();
        let _b = server.track_connection();
        {
            let _c = server.track_connection();
            assert_eq!(server.active_connections(), 3);
        }
        assert_eq!(server.active_connections(), 2);
        // Two live connections; the one issuing shutdown is not drained.
        let r = server.handle_line("{\"op\":\"shutdown\"}");
        assert!(r.line.contains("\"drained_connections\":1"), "{}", r.line);
    }

    #[test]
    fn a_blown_deadline_is_a_structured_error_and_serving_continues() {
        let server =
            Server::new(ServeOptions { deadline_ms: Some(0), ..ServeOptions::default() });
        let r = server.handle_line(&request(LOOP, 32));
        let doc = parse_json(&r.line).unwrap();
        assert_eq!(doc.get("ok").unwrap().as_bool(), Some(false), "{}", r.line);
        let error = doc.get("error").unwrap();
        assert_eq!(error.get("kind").unwrap().as_str(), Some("deadline"), "{}", r.line);
        assert!(error.get("message").unwrap().as_str().unwrap().contains("0 ms"));
        // The daemon is still alive and the failed compile was not cached.
        let stats = parse_json(&server.stats_payload()).unwrap();
        assert_eq!(stats.get("deadline_exceeded").unwrap().as_i64(), Some(1));
        assert_eq!(stats.get("totals").unwrap().get("entries").unwrap().as_i64(), Some(0));
        assert_eq!(
            server.handle_line("{\"op\":\"ping\"}").line,
            "{\"ok\":true,\"op\":\"pong\"}"
        );
    }

    #[test]
    fn a_generous_deadline_does_not_fire() {
        let server =
            Server::new(ServeOptions { deadline_ms: Some(60_000), ..ServeOptions::default() });
        let plain = Server::new(ServeOptions::default());
        let a = server.handle_line(&request(LOOP, 32));
        let b = plain.handle_line(&request(LOOP, 32));
        assert_eq!(a.line, b.line, "deadline plumbing must not change results");
        let stats = parse_json(&server.stats_payload()).unwrap();
        assert_eq!(stats.get("deadline_exceeded").unwrap().as_i64(), Some(0));
    }

    #[test]
    fn persistent_cache_survives_a_restart_byte_identically() {
        let dir =
            std::env::temp_dir().join(format!("regpipe-server-persist-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions { cache_dir: Some(dir.clone()), ..ServeOptions::default() };
        let cold = {
            let server = Server::open(options.clone()).unwrap();
            let r = server.handle_line(&request(LOOP, 32));
            let stats = parse_json(&server.stats_payload()).unwrap();
            assert_eq!(stats.get("persistent").unwrap().as_bool(), Some(true));
            r.line
        };
        let server = Server::open(options).unwrap();
        let stats = parse_json(&server.stats_payload()).unwrap();
        let store = stats.get("store").unwrap();
        assert_eq!(store.get("recovered_entries").unwrap().as_i64(), Some(1));
        assert_eq!(store.get("dropped_corrupt_entries").unwrap().as_i64(), Some(0));
        let warm = server.handle_line(&request(LOOP, 32));
        assert_eq!(warm.line, cold, "a recovered hit is byte-identical to the cold miss");
        let totals = parse_json(&server.stats_payload()).unwrap();
        assert_eq!(totals.get("totals").unwrap().get("hits").unwrap().as_i64(), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_v1_store_segment_is_dropped_and_its_key_compiles_afresh() {
        let dir =
            std::env::temp_dir().join(format!("regpipe-server-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions { cache_dir: Some(dir.clone()), ..ServeOptions::default() };
        let cold = Server::open(options.clone()).unwrap().handle_line(&request(LOOP, 32)).line;
        // Rewrite the segment as an older compiler would have left it: the
        // v1 header, and a well-formed frame whose answer differs.
        let seg = dir.join("seg-00000000.log");
        let bytes = std::fs::read(&seg).unwrap();
        let frame = &bytes[crate::store::MAGIC.len() + 8..];
        let stale = String::from_utf8(frame.to_vec()).unwrap().replace("\"ii\":", "\"ii\":9");
        let mut v1 = b"regpipe-store-v1\n".to_vec();
        v1.extend_from_slice(&u32::try_from(stale.len()).unwrap().to_le_bytes());
        v1.extend_from_slice(&crate::store::crc32(stale.as_bytes()).to_le_bytes());
        v1.extend_from_slice(stale.as_bytes());
        std::fs::write(&seg, v1).unwrap();

        let server = Server::open(options).unwrap();
        let stats = parse_json(&server.stats_payload()).unwrap();
        let store = stats.get("store").unwrap();
        assert_eq!(store.get("recovered_entries").unwrap().as_i64(), Some(0));
        assert_eq!(store.get("dropped_corrupt_entries").unwrap().as_i64(), Some(1));
        assert_eq!(server.handle_line(&request(LOOP, 32)).line, cold);
        let totals = parse_json(&server.stats_payload()).unwrap();
        assert_eq!(totals.get("totals").unwrap().get("misses").unwrap().as_i64(), Some(1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_dir_without_cache_is_rejected() {
        let err = match Server::open(ServeOptions {
            cache: false,
            cache_dir: Some(std::env::temp_dir().join("regpipe-unused")),
            ..ServeOptions::default()
        }) {
            Ok(_) => panic!("--cache-dir with --no-cache must be rejected"),
            Err(err) => err,
        };
        assert!(err.contains("requires the cache"), "{err}");
    }

    #[test]
    fn machine_key_ignores_names_but_not_parameters() {
        let named = MachineConfig::custom("other-name", 2, 2, 2, 2, 4, 4);
        assert_eq!(machine_key(&MachineConfig::p2l4()), machine_key(&named));
        assert_ne!(machine_key(&MachineConfig::p2l4()), machine_key(&MachineConfig::p2l6()));
        assert_ne!(
            machine_key(&MachineConfig::uniform(4, 2)),
            machine_key(&MachineConfig::uniform(4, 3))
        );
    }

    /// The spill policy is part of the cache key: distinct policies miss
    /// separately, repeating a policy hits, and an absent field is the
    /// same entry as an explicit `"paper"`.
    #[test]
    fn spill_policy_is_cache_keyed() {
        let server = Server::new(ServeOptions::default());
        let with_policy = |policy: &str| {
            format!(
                "{{\"op\":\"compile\",\"ddg\":{},\"spill_policy\":\"{policy}\"}}",
                Value::Str(LOOP.into()).render()
            )
        };
        let implicit = server.handle_line(&format!(
            "{{\"op\":\"compile\",\"ddg\":{}}}",
            Value::Str(LOOP.into()).render()
        ));
        for policy in ["paper", "min-next-use", "furthest-next-use", "round-robin"] {
            let first = server.handle_line(&with_policy(policy));
            let second = server.handle_line(&with_policy(policy));
            assert_eq!(first.line, second.line, "{policy}");
            assert!(first.line.contains("\"status\":\"fitted\""), "{policy}: {}", first.line);
        }
        assert_eq!(implicit.line, server.handle_line(&with_policy("paper")).line);
        let stats = parse_json(&server.stats_payload()).unwrap();
        let totals = stats.get("totals").unwrap();
        // 4 distinct keys missed once each; the remaining 6 of the 10
        // requests (including both explicit "paper" ones) hit.
        assert_eq!(totals.get("misses").unwrap().as_i64(), Some(4));
        assert_eq!(totals.get("hits").unwrap().as_i64(), Some(6));
    }

    fn counter(stats: &Value, path: &[&str]) -> i64 {
        let mut v = stats;
        for key in path {
            v = v.get(key).unwrap_or_else(|| panic!("stats lack {path:?}"));
        }
        v.as_i64().unwrap()
    }

    fn error_kind(line: &str) -> String {
        let doc = parse_json(line).unwrap();
        doc.get("error").and_then(|e| e.get("kind")).and_then(Value::as_str).unwrap().into()
    }

    /// RFC 8259 requires control characters inside strings escaped, also
    /// in fields the daemon ignores.
    #[test]
    fn a_raw_tab_in_a_ping_is_a_protocol_error() {
        let server = Server::new(ServeOptions::default());
        let r = server.handle_line("{\"op\":\"ping\",\"note\":\"a\tb\"}");
        assert_eq!(error_kind(&r.line), "protocol", "{}", r.line);
        assert!(r.line.contains("raw control character U+0009"), "{}", r.line);
        let escaped = server.handle_line("{\"op\":\"ping\",\"note\":\"a\\tb\"}");
        assert_eq!(escaped.line, "{\"ok\":true,\"op\":\"pong\"}");
    }

    /// A request just under the default line bound is answered promptly,
    /// in an unoptimised test build too: the JSON and `.ddg` parses and
    /// the alias hash are linear in the line.
    #[test]
    fn megabyte_requests_are_answered_within_100_ms() {
        let server = Server::new(ServeOptions::default());
        let max = server.max_request_bytes();
        let ping = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(max - 40));
        let padded = |pad: usize| format!("{LOOP}# {}\n", "y".repeat(pad));
        let short = request(&padded(0), 32).len();
        let compile = request(&padded(max - 40 - short), 32);
        let plain = Server::new(ServeOptions::default()).handle_line(&request(LOOP, 32)).line;
        for (line, want) in [(ping, "{\"ok\":true,\"op\":\"pong\"}"), (compile, plain.as_str())]
        {
            assert!((max - 64..=max).contains(&line.len()), "{}", line.len());
            let started = std::time::Instant::now();
            let r = server.handle_line(&line);
            let took = started.elapsed();
            assert_eq!(r.line, want);
            assert!(took < Duration::from_millis(100), "{} bytes took {took:?}", line.len());
        }
    }

    /// The canonical text and two other spellings of one loop: one miss,
    /// two hits, one entry, the same bytes as `--no-cache`; and every
    /// repeat hits through its alias.
    #[test]
    fn equivalent_spellings_alias_one_entry() {
        let on = Server::new(ServeOptions::default());
        let off = Server::new(ServeOptions { cache: false, ..ServeOptions::default() });
        let spellings = [
            LOOP,
            "# header\n\nloop t\nop ld load\nop a add\nop st store\n\
             edge ld -> a reg 0\nedge a -> st reg 0\n",
            "loop  t\n  op ld   load # the load\nop a add\n\n op st store\n\
             edge ld -> a   reg 0\nedge a -> st reg\n",
        ];
        let uncached = off.handle_line(&request(LOOP, 32)).line;
        for text in spellings {
            assert_eq!(on.handle_line(&request(text, 32)).line, uncached);
            assert_eq!(off.handle_line(&request(text, 32)).line, uncached);
        }
        let stats = parse_json(&on.stats_payload()).unwrap();
        assert_eq!(counter(&stats, &["totals", "misses"]), 1);
        assert_eq!(counter(&stats, &["totals", "hits"]), 2);
        assert_eq!(counter(&stats, &["totals", "entries"]), 1);
        assert_eq!(counter(&stats, &["alias_entries"]), 3);
        for text in spellings {
            assert_eq!(
                on.handle_line(&request(text, 8)).line,
                off.handle_line(&request(text, 8)).line
            );
        }
        let stats = parse_json(&on.stats_payload()).unwrap();
        assert_eq!(counter(&stats, &["totals", "misses"]), 2);
        assert_eq!(counter(&stats, &["totals", "hits"]), 4);
        assert_eq!(counter(&stats, &["alias_entries"]), 3);
        let stats = parse_json(&off.stats_payload()).unwrap();
        assert_eq!(counter(&stats, &["alias_entries"]), 0, "--no-cache keeps no aliases");
    }

    #[test]
    fn a_bad_ddg_is_never_aliased() {
        let server = Server::new(ServeOptions::default());
        let bad = request("loop l\nop a add\nedge a -> b reg 0\n", 32);
        let first = server.handle_line(&bad).line;
        assert_eq!(error_kind(&first), "invalid", "{first}");
        assert!(first.contains("unknown op 'b'"), "{first}");
        assert_eq!(server.handle_line(&bad).line, first);
        let stats = parse_json(&server.stats_payload()).unwrap();
        assert_eq!(counter(&stats, &["alias_entries"]), 0);
        assert_eq!(counter(&stats, &["compile_requests"]), 0);
    }

    /// An aliased text is parsed again when the cache misses, and the
    /// parse decides: a text that collides with another's alias still
    /// gets its own answer on a miss, here its `invalid` error.
    #[test]
    fn an_aliased_miss_parses_its_text() {
        let server = Server::new(ServeOptions::default());
        let bad = "loop l\nop a add\nedge a -> b reg 0\n";
        let want = server.handle_line(&request(bad, 32)).line;
        let aliases = server.aliases.as_ref().unwrap();
        aliases.insert(RawText::of(bad), 0x5eed);
        assert_eq!(server.handle_line(&request(bad, 32)).line, want);
    }

    /// A server whose alias map and cache overflow on every insert
    /// answers a stream with repeats exactly like one that never
    /// overflows; the small one's aliases stay within their bound.
    #[test]
    fn an_overflowing_alias_map_changes_no_answer() {
        let loops =
            regpipe_loops::generate(7, 12, &regpipe_loops::GenParams::default()).unwrap();
        let mut lines = crate::requests_from_loops(&loops, &crate::ReplayConfig::default());
        lines.extend(lines.clone().into_iter().rev());
        let roomy = Server::new(ServeOptions::default());
        for capacity_bytes in [64, 4096] {
            let small = Server::new(ServeOptions { capacity_bytes, ..ServeOptions::default() });
            for line in &lines {
                assert_eq!(small.handle_line(line).line, roomy.handle_line(line).line);
            }
            let stats = parse_json(&small.stats_payload()).unwrap();
            assert!(counter(&stats, &["alias_entries"]) <= 8, "{stats:?}");
            assert!(counter(&stats, &["totals", "evictions"]) > 0, "{stats:?}");
        }
        let stats = parse_json(&roomy.stats_payload()).unwrap();
        assert_eq!(counter(&stats, &["alias_entries"]), 12);
    }

    /// Recovered entries carry no aliases: a warm daemon parses each text
    /// once, then answers every request as a byte-identical hit.
    #[test]
    fn a_warm_restart_hits_before_its_aliases_exist() {
        let dir =
            std::env::temp_dir().join(format!("regpipe-server-alias-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = ServeOptions { cache_dir: Some(dir.clone()), ..ServeOptions::default() };
        let spaced = format!("# again\n{LOOP}\n");
        let lines = [request(LOOP, 32), request(&spaced, 32), request(LOOP, 4)];
        let cold: Vec<String> = {
            let server = Server::open(options.clone()).unwrap();
            lines.iter().map(|l| server.handle_line(l).line).collect()
        };
        let server = Server::open(options).unwrap();
        let stats = parse_json(&server.stats_payload()).unwrap();
        assert_eq!(counter(&stats, &["alias_entries"]), 0);
        for _ in 0..2 {
            let warm: Vec<String> = lines.iter().map(|l| server.handle_line(l).line).collect();
            assert_eq!(warm, cold);
        }
        let stats = parse_json(&server.stats_payload()).unwrap();
        assert_eq!(counter(&stats, &["totals", "hits"]), 6);
        assert_eq!(counter(&stats, &["totals", "misses"]), 0);
        assert_eq!(counter(&stats, &["alias_entries"]), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Equivalent formattings of the same loop share one cache entry.
    #[test]
    fn content_addressing_unifies_equivalent_text() {
        let server = Server::new(ServeOptions::default());
        let spaced = "# header\n\nloop t\nop ld load\nop a add\nop st store\n\
                      edge ld -> a reg 0\nedge a -> st reg 0\n";
        let a = server.handle_line(&request(LOOP, 32));
        let b = server.handle_line(&request(spaced, 32));
        assert_eq!(a.line, b.line);
        let stats = parse_json(&server.stats_payload()).unwrap();
        let totals = stats.get("totals").unwrap();
        assert_eq!(totals.get("hits").unwrap().as_i64(), Some(1));
        assert_eq!(totals.get("misses").unwrap().as_i64(), Some(1));
    }
}
