//! The measured run (`--trace 0`): set-up, a closed-loop window with
//! tracing off, a clean stop and the recovery check — every answer held
//! against the generator's expectation.

use crate::harness::{judge, CertChecker, Oracle, Store, Submitter};
use crate::json::Json;
use crate::stats::{iqr_share, median, quantile};
use crate::workload::{base_db, ClientStream, Spec};
use ccpi::durable::DurableManager;
use ccpi_server::AdmissionClient;
use ccpi_storage::{Database, Update};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Recoveries per run, each of a fresh copy; the median is reported.
const RECOVERIES: usize = 7;
/// Set-ups per run: at least `MIN_SETUPS`, then more (up to `MAX_SETUPS`)
/// until they have taken `SETUP_BUDGET_S` together, so that a store that
/// sets up in milliseconds is not reported from three samples. The median
/// is reported.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;
/// Slices of the window; `admits_per_s` is the median slice.
const SLICES: usize = 6;
/// The `e6-mixed-batch` reader's pace.
const READER_PERIOD: Duration = Duration::from_millis(5);
/// On the workloads without a reader: `query("emp")` scans of the idle
/// server after the window, reported in chunks like the window's slices.
const SCANS: usize = 5 * SLICES;

pub struct Config {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: f64,
    /// A directory of this run's own, inside the benchmark's `out/`.
    pub scratch: PathBuf,
}

impl Config {
    /// Warm-up before the window: connections dialled, caches filled, the
    /// first copy-on-write copies made.
    pub fn warmup(&self) -> f64 {
        (self.seconds * 0.1).clamp(0.3, 3.0)
    }
}

/// One reported metric. `spread` is the interquartile range of the
/// within-run slices or repeats as a share of their median (0 where the
/// run has none): what `compare` holds against the metric's bound.
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub spread: f64,
}

pub struct Output {
    pub metrics: Vec<Measured>,
    /// Sample counts and slice values behind the metrics.
    pub detail: Json,
    pub oracle: Oracle,
}

/// One acknowledged request, on the run's clock (seconds).
pub(crate) struct Sample {
    start: f64,
    end: f64,
    updates: usize,
    violating: bool,
}

#[derive(Default)]
pub(crate) struct ClientLog {
    pub(crate) samples: Vec<Sample>,
    /// Every acknowledged update with its verdict, in submission order.
    acked: Vec<(Update, bool)>,
    pub(crate) oracle: Oracle,
}

fn submit_loop(
    mut submitter: Submitter,
    mut stream: ClientStream,
    mut certs: Option<CertChecker>,
    origin: Instant,
    stop: &AtomicBool,
) -> ClientLog {
    let mut log = ClientLog::default();
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(stream.think_time());
        let req = stream.next_request();
        let start = origin.elapsed().as_secs_f64();
        let outcome = submitter.submit(&req.updates);
        let end = origin.elapsed().as_secs_f64();
        let mut problems = judge(&req, &outcome);
        if let Ok(results) = &outcome {
            log.samples.push(Sample {
                start,
                end,
                updates: req.updates.len(),
                violating: req.has_violation(),
            });
            if let Some(checker) = certs.as_mut() {
                checker.verify(&req, results, &mut problems);
            }
            for (update, got) in req.updates.iter().zip(results) {
                log.acked.push((update.clone(), got.admitted));
            }
        }
        problems.into_iter().for_each(|p| log.oracle.record(p));
    }
    log.oracle.check(submitter.redirects() == 0, || {
        format!("{} wrong-shard redirects", submitter.redirects())
    });
    log
}

#[derive(Default)]
pub(crate) struct ReadLog {
    /// `(start on the run's clock, latency in ms)`.
    samples: Vec<(f64, f64)>,
    last_version: u64,
    oracle: Oracle,
}

/// One read's answer: the snapshot version it saw, or why it failed.
fn record_read(
    log: &mut ReadLog,
    start: Duration,
    origin: Instant,
    seen: Result<u64, ccpi_server::ClientError>,
) {
    let latency = origin.elapsed() - start;
    log.samples
        .push((start.as_secs_f64(), latency.as_secs_f64() * 1e3));
    match seen {
        Ok(version) => {
            let last = log.last_version;
            log.oracle.check(version >= last, || {
                format!("snapshot version went back: {last} -> {version}")
            });
            log.last_version = version;
        }
        Err(e) => log.oracle.check(false, || format!("read failed: {e}")),
    }
}

/// The `e6-mixed-batch` reader: alternates `version()` and `query("dept")`
/// on a fixed schedule until `stop`. A read sent late is timed from when
/// it was due, so a stall counts against every read it delayed.
fn read_loop(mut client: AdmissionClient, origin: Instant, stop: &AtomicBool) -> ReadLog {
    let mut log = ReadLog::default();
    let mut due = origin.elapsed();
    while !stop.load(Ordering::Relaxed) {
        let mut start = origin.elapsed();
        if start < due {
            std::thread::sleep(due - start);
            start = origin.elapsed();
        } else {
            start = due;
        }
        due += READER_PERIOD;
        let seen = if log.samples.len() % 2 == 0 {
            client.version()
        } else {
            client.query("dept").map(|(version, rows)| {
                log.oracle
                    .check(!rows.is_empty(), || "query(dept) returned no rows".into());
                version
            })
        };
        record_read(&mut log, start, origin, seen);
    }
    log
}

/// Whole-relation scans of the idle server. A read of a few rows on an
/// idle loopback is tens of microseconds of wake-up latency and nothing
/// else; a scan of `emp` is milliseconds of snapshot, row and wire work,
/// which is what a slower read path would change.
fn scan_loop(mut client: AdmissionClient, origin: Instant) -> ReadLog {
    let mut log = ReadLog::default();
    for _ in 0..SCANS {
        let start = origin.elapsed();
        let seen = client.query("emp").map(|(version, rows)| {
            // A shard holds only its fragment, but never an empty one.
            log.oracle
                .check(!rows.is_empty(), || "query(emp) returned no rows".into());
            version
        });
        record_read(&mut log, start, origin, seen);
    }
    log
}

/// Runs the workload's clients against `store` for `seconds`: one
/// closed-loop submitter per `(stream, certificate checker)`, and the paced
/// reader beside them when asked for.
pub(crate) fn drive(
    store: &Store,
    clients: Vec<(ClientStream, Option<CertChecker>)>,
    with_reader: bool,
    seconds: f64,
    origin: Instant,
) -> (Vec<ClientLog>, Option<ReadLog>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let submitters: Vec<_> = clients
            .into_iter()
            .map(|(stream, certs)| {
                let submitter = store.submitter();
                let stop = &stop;
                scope.spawn(move || submit_loop(submitter, stream, certs, origin, stop))
            })
            .collect();
        let reader = with_reader.then(|| {
            let client = store.reader();
            let stop = &stop;
            scope.spawn(move || read_loop(client, origin, stop))
        });
        std::thread::sleep(Duration::from_secs_f64(seconds));
        stop.store(true, Ordering::Relaxed);
        let logs = submitters
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect();
        let reads = reader.map(|h| h.join().expect("reader thread"));
        (logs, reads)
    })
}

/// `initial ∪ acked-admitted inserts − acked-admitted deletes`. Clients
/// write disjoint keys, so their logs commute.
fn expected_state(spec: &Spec, seed: u64, logs: &[ClientLog]) -> Database {
    let mut db = base_db(spec, seed);
    for (update, admitted) in logs.iter().flat_map(|l| &l.acked) {
        if *admitted {
            db.apply(update).expect("acked updates fit the schema");
        }
    }
    db
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Recovers a fresh copy of every shard directory and checks the recovered
/// state is exactly `expected`; returns the recovery time in ms, summed
/// over shards.
fn recover_copy(store: &Store, expected: &[Database], scratch: &Path, oracle: &mut Oracle) -> f64 {
    let mut total_ms = 0.0;
    for (shard, dir) in store.dirs.iter().enumerate() {
        let copy = scratch.join(format!("recover{shard}"));
        let copied = copy_dir(dir, &copy);
        let started = Instant::now();
        let recovered = DurableManager::recover(&copy);
        total_ms += started.elapsed().as_secs_f64() * 1e3;
        match (copied, recovered) {
            (Ok(()), Ok((mgr, report))) => {
                oracle.check(report.dropped_bytes == 0, || {
                    format!("shard {shard}: torn WAL tail after a clean stop")
                });
                for decl in expected[shard].decls() {
                    let name = decl.name.as_str();
                    oracle.check(
                        mgr.database().relation(name) == expected[shard].relation(name),
                        || {
                            format!(
                                "shard {shard}: recovered `{name}` differs from the acked state"
                            )
                        },
                    );
                }
            }
            (Err(e), _) => oracle.check(false, || format!("shard {shard}: copy failed: {e}")),
            (_, Err(e)) => oracle.check(false, || format!("shard {shard}: recovery failed: {e}")),
        }
        std::fs::remove_dir_all(&copy).ok();
    }
    total_ms
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|v| Json::Num(*v)).collect())
}

pub fn run(cfg: &Config) -> Result<Output, String> {
    let spec = &cfg.spec;
    let mut oracle = Oracle::default();

    let mut setups = Vec::new();
    let mut store = None;
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // One store at a time: the previous servers are down and their
        // memory returned before the next set-up is timed.
        drop(store.take());
        let started = Instant::now();
        store = Some(Store::set_up(spec, cfg.seed, &cfg.scratch)?);
        setups.push(started.elapsed().as_secs_f64());
    }
    let store = store.expect("at least one set-up");

    let warmup = cfg.warmup();
    let window = (warmup, warmup + cfg.seconds);
    let origin = Instant::now();
    let clients = (0..spec.submitters)
        .map(|client| {
            let certs = spec.batch.then(|| CertChecker::new(store.base.clone()));
            (ClientStream::new(spec, cfg.seed, client), certs)
        })
        .collect();
    let (logs, reads) = drive(&store, clients, spec.batch, window.1, origin);
    let in_window = |start: f64, end: f64| start >= window.0 && end <= window.1;
    let slice_of =
        |t: f64| (((t - window.0) / cfg.seconds * SLICES as f64) as usize).min(SLICES - 1);

    // Where no reader ran beside the writers, scan the idle server.
    let reads = reads.unwrap_or_else(|| scan_loop(store.reader(), origin));
    let read_slices: Vec<f64> = if spec.batch {
        let mut per_slice = vec![Vec::new(); SLICES];
        for (start, ms) in &reads.samples {
            if in_window(*start, *start + ms / 1e3) {
                per_slice[slice_of(*start)].push(*ms);
            }
        }
        per_slice.iter().map(|s| quantile(s, 0.9)).collect()
    } else {
        let ms: Vec<f64> = reads.samples.iter().map(|(_, ms)| *ms).collect();
        ms.chunks(SCANS / SLICES)
            .map(|s| quantile(s, 0.9))
            .collect()
    };
    let read_count = reads.samples.len();
    oracle.merge(reads.oracle);

    let groups = store.stat(|s| s.groups());
    let submitted = store.stat(|s| s.submitted());
    store.stop();

    let expected = spec.fragments(&expected_state(spec, cfg.seed, &logs))?;
    let recoveries: Vec<f64> = (0..RECOVERIES)
        .map(|_| recover_copy(&store, &expected, &cfg.scratch, &mut oracle))
        .collect();
    drop(expected);

    let mut latencies = Vec::new();
    let mut rejects = Vec::new();
    let mut slice_acks = [0usize; SLICES];
    let mut slice_latencies = vec![Vec::new(); SLICES];
    for log in &logs {
        for s in &log.samples {
            if s.end >= window.0 && s.end < window.1 {
                slice_acks[slice_of(s.end)] += s.updates;
            }
            if in_window(s.start, s.end) {
                let ms = (s.end - s.start) * 1e3;
                latencies.push(ms);
                slice_latencies[slice_of(s.end)].push(ms);
                if s.violating {
                    rejects.push(ms);
                }
            }
        }
    }
    for log in logs {
        oracle.merge(log.oracle);
    }
    let slice_len = cfg.seconds / SLICES as f64;
    let slice_rates: Vec<f64> = slice_acks.iter().map(|n| *n as f64 / slice_len).collect();
    let slice_p50: Vec<f64> = slice_latencies.iter().map(|s| median(s)).collect();
    let slice_p90: Vec<f64> = slice_latencies.iter().map(|s| quantile(s, 0.9)).collect();

    let measured = |name, value, slices: &[f64]| Measured {
        name,
        value,
        spread: iqr_share(slices),
    };
    let metrics = vec![
        measured("setup_s", median(&setups), &setups),
        measured("admits_per_s", median(&slice_rates), &slice_rates),
        measured("ack_p50_ms", median(&latencies), &slice_p50),
        measured("ack_p90_ms", quantile(&latencies, 0.9), &slice_p90),
        measured("reject_p50_ms", median(&rejects), &[]),
        measured("read_p90_ms", median(&read_slices), &read_slices),
        measured("recover_ms", median(&recoveries), &recoveries),
        measured("peak_rss_mb", peak_rss_mb(), &[]),
    ];
    let mut detail = vec![
        ("setup_s", numbers(&setups)),
        ("slice_admits_per_s", numbers(&slice_rates)),
        ("slice_ack_p50_ms", numbers(&slice_p50)),
        ("slice_ack_p90_ms", numbers(&slice_p90)),
        ("slice_read_p90_ms", numbers(&read_slices)),
        ("recover_ms", numbers(&recoveries)),
        ("ack_samples", Json::Num(latencies.len() as f64)),
        ("reject_samples", Json::Num(rejects.len() as f64)),
        ("read_samples", Json::Num(read_count as f64)),
        ("commit_groups", Json::Num(groups as f64)),
        ("updates_submitted", Json::Num(submitted as f64)),
        ("warmup_s", Json::Num(warmup)),
        ("window_s", Json::Num(cfg.seconds)),
    ];
    // p99 needs ten samples beyond it; it is printed, never gated.
    if latencies.len() >= 1000 {
        detail.push(("ack_p99_ms", Json::Num(quantile(&latencies, 0.99))));
    }
    Ok(Output {
        metrics,
        detail: Json::obj(detail),
        oracle,
    })
}
