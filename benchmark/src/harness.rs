//! What the measured run and the traced run share: standing the servers
//! up, submitting through the public clients, and the output oracle.

use crate::workload::{base_db, Expect, Request, Spec, CONSTRAINTS};
use ccpi::durable::DurableManager;
use ccpi_audit::{Auditor, Certificate, Verdict};
use ccpi_parser::parse_constraint;
use ccpi_server::{
    serve, AdmissionClient, AdmitResult, ClientError, FleetClient, ServerConfig, ServerHandle,
    ServerStats, ShardAssignment,
};
use ccpi_storage::{Database, Partitioning, Update};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Generous against a stalled fsync; a deadline hit is a failed operation.
const DEADLINE: Duration = Duration::from_secs(30);
/// Failure notes kept for printing; the counts are always exact.
const MAX_NOTES: usize = 12;

pub fn micros(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// Counts operations attempted and failed. A failed check is counted and
/// printed with the seed, never a panic that hides the other metrics.
#[derive(Default)]
pub struct Oracle {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Oracle {
    /// One operation with the problems found on it (none = correct).
    pub fn record(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = MAX_NOTES.saturating_sub(self.notes.len());
            self.notes.extend(problems.into_iter().take(room));
        }
    }

    pub fn check(&mut self, ok: bool, note: impl FnOnce() -> String) {
        self.record(if ok { Vec::new() } else { vec![note()] });
    }

    pub fn merge(&mut self, other: Oracle) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_NOTES.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.into_iter().take(room));
    }

    pub fn print(&self, workload: &str, seed: u64) {
        for note in &self.notes {
            println!("FAILED CHECK [{workload} seed {seed}]: {note}");
        }
        if self.failed as usize > self.notes.len() {
            println!(
                "FAILED CHECK [{workload} seed {seed}]: ... {} failed operations in all",
                self.failed
            );
        }
    }
}

/// The workload's servers, each over its own durable directory.
pub struct Store {
    pub dirs: Vec<PathBuf>,
    pub servers: Vec<ServerHandle>,
    pub parts: Partitioning,
    /// Mean time to register one constraint (compile + audit + log).
    pub add_constraint_us: f64,
    /// The base store, shared copy-on-write with what the servers started
    /// from; the certificate checker's replica starts here.
    pub base: Database,
}

impl Store {
    /// Generate, load, register, `serve()`, and wait for the first `ping`
    /// of every shard: what `setup_s` times.
    pub fn set_up(spec: &Spec, seed: u64, root: &Path) -> Result<Store, String> {
        let base = base_db(spec, seed);
        let fragments = spec.fragments(&base)?;
        let mut store = Store {
            dirs: Vec::new(),
            servers: Vec::new(),
            parts: spec.partitioning(),
            add_constraint_us: 0.0,
            base,
        };
        for (shard, fragment) in fragments.into_iter().enumerate() {
            let dir = root.join(format!("shard{shard}"));
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
            }
            let mut mgr = DurableManager::create(&dir, fragment).map_err(|e| e.to_string())?;
            let registering = Instant::now();
            for (name, source) in CONSTRAINTS {
                mgr.add_constraint(name, source)
                    .map_err(|e| e.to_string())?;
            }
            store.add_constraint_us += micros(registering) / CONSTRAINTS.len() as f64;
            let config = ServerConfig {
                shard: (spec.shards > 1).then(|| ShardAssignment {
                    parts: store.parts.clone(),
                    shard,
                }),
                certificates: spec.batch,
                ..ServerConfig::default()
            };
            let server = serve(mgr, "127.0.0.1:0", config).map_err(|e| e.to_string())?;
            store.dirs.push(dir);
            store.servers.push(server);
        }
        store.add_constraint_us /= spec.shards as f64;
        for addr in store.addrs() {
            AdmissionClient::connect(addr)
                .with_deadline(DEADLINE)
                .ping()
                .map_err(|e| format!("first ping: {e}"))?;
        }
        Ok(store)
    }

    /// One `ServerStats` counter, summed over the shard servers.
    pub fn stat(&self, counter: fn(&ServerStats) -> u64) -> u64 {
        self.servers.iter().map(|s| counter(&s.stats())).sum()
    }

    pub fn addrs(&self) -> Vec<SocketAddr> {
        self.servers.iter().map(ServerHandle::addr).collect()
    }

    /// A client the way the workload's callers connect: straight to the one
    /// server, or routing through a `FleetClient` over the shard servers.
    pub fn submitter(&self) -> Submitter {
        let clients: Vec<_> = self
            .addrs()
            .into_iter()
            .map(|a| AdmissionClient::connect(a).with_deadline(DEADLINE))
            .collect();
        if clients.len() > 1 {
            Submitter::Fleet(FleetClient::new(clients, self.parts.clone()))
        } else {
            Submitter::Single(clients.into_iter().next().expect("one server"))
        }
    }

    pub fn reader(&self) -> AdmissionClient {
        AdmissionClient::connect(self.servers[0].addr()).with_deadline(DEADLINE)
    }

    pub fn stop(&self) {
        for server in &self.servers {
            server.stop();
        }
    }
}

pub enum Submitter {
    Single(AdmissionClient),
    Fleet(FleetClient),
}

impl Submitter {
    pub fn submit(&mut self, updates: &[Update]) -> Result<Vec<AdmitResult>, ClientError> {
        match self {
            Submitter::Single(c) => c.submit(updates),
            Submitter::Fleet(f) => f.submit(updates),
        }
    }

    pub fn redirects(&self) -> u64 {
        match self {
            Submitter::Single(_) => 0,
            Submitter::Fleet(f) => f.redirects(),
        }
    }
}

/// Holds every answer of one request against the generator's expectation:
/// verdict, rejecting constraint, no `Unknown`. Returns the problems found,
/// per update. A request that failed as a whole (transport, protocol,
/// `Busy`, server error) fails every update it carried.
pub fn judge(req: &Request, outcome: &Result<Vec<AdmitResult>, ClientError>) -> Vec<Vec<String>> {
    let results = match outcome {
        Ok(results) => results,
        Err(e) => {
            return req
                .updates
                .iter()
                .map(|u| vec![format!("{u}: request failed: {e}")])
                .collect()
        }
    };
    req.updates
        .iter()
        .zip(&req.expect)
        .zip(results)
        .map(|((update, expect), got)| {
            let as_expected = match expect {
                Expect::Admit => got.admitted && got.violations.is_empty(),
                Expect::Reject(by) => !got.admitted && got.violations == [by.to_string()],
            };
            if as_expected && got.unknowns.is_empty() {
                Vec::new()
            } else {
                vec![format!(
                    "{update}: expected {expect:?}, got admitted={} violations={:?} unknowns={:?}",
                    got.admitted, got.violations, got.unknowns
                )]
            }
        })
        .collect()
}

/// The client's trusted side on `e6-mixed-batch`: a replica of the store
/// and an auditor built from the constraint sources alone, re-verifying
/// every certificate the server returns.
pub struct CertChecker {
    auditor: Auditor,
    replica: Database,
    pub certificates: u64,
    pub bytes: u64,
    pub rejected: u64,
    pub updates: u64,
    pub verify_us: f64,
}

impl CertChecker {
    pub fn new(base: Database) -> CertChecker {
        let mut auditor = Auditor::new();
        for (name, source) in CONSTRAINTS {
            let parsed = parse_constraint(source).expect("the E6 family parses");
            auditor.register(name, parsed);
        }
        CertChecker {
            auditor,
            replica: base,
            certificates: 0,
            bytes: 0,
            rejected: 0,
            updates: 0,
            verify_us: 0.0,
        }
    }

    /// Re-verifies the certificates of one single-request commit group and
    /// advances the replica by its admitted updates; appends what it finds
    /// wrong to `problems` (one list per update).
    ///
    /// A rejected update was refused at the batch's pre-state check, so its
    /// proofs bind the pre-batch state and are verified first; an admitted
    /// update's proofs bind the evolving state it was judged on, and are
    /// verified against the replica just after applying it.
    pub fn verify(&mut self, req: &Request, results: &[AdmitResult], problems: &mut [Vec<String>]) {
        let started = Instant::now();
        for admitted_pass in [false, true] {
            for (k, (update, got)) in req.updates.iter().zip(results).enumerate() {
                if got.admitted != admitted_pass {
                    continue;
                }
                self.updates += 1;
                let changed = if got.admitted {
                    match self.replica.apply(update) {
                        Ok(changed) => changed,
                        Err(e) => {
                            problems[k].push(format!("{update}: replica apply: {e}"));
                            continue;
                        }
                    }
                } else {
                    false
                };
                for (name, bytes) in &got.certificates {
                    self.certificates += 1;
                    self.bytes += bytes.len() as u64;
                    let expect_violated =
                        matches!(req.expect[k], Expect::Reject(by) if by == name.as_str());
                    let verdict = Certificate::decode(bytes)
                        .map_err(|e| format!("undecodable: {e}"))
                        .and_then(|cert| {
                            if &cert.update != update || &cert.constraint != name {
                                return Err("bound to another update or constraint".to_string());
                            }
                            if got.admitted {
                                self.auditor.verify_applied(&cert, &self.replica, changed)
                            } else {
                                self.auditor.verify_lenient(&cert, &self.replica)
                            }
                            .map_err(|rejection| rejection.to_string())
                        });
                    let ok = match verdict {
                        Ok(Verdict::Violated) => expect_violated,
                        Ok(Verdict::Holds) => !expect_violated,
                        Err(_) => false,
                    };
                    if !ok {
                        self.rejected += 1;
                        problems[k].push(format!("{update}: certificate `{name}`: {verdict:?}"));
                    }
                }
            }
        }
        self.verify_us += micros(started);
    }
}
