//! The workload generator: the E6 employee store and the request streams
//! the clients send. Everything is a pure function of `(Spec, seed)` — the
//! program under test only ever sees the generated updates, and the
//! generator knows the verdict (and rejecting constraint) each one must
//! get, which is what the output oracle checks acks against.

use ccpi_storage::{tuple, Database, Locality, Partitioning, Tuple, Update};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::VecDeque;

/// The E6 constraint family, in registration order.
pub const CONSTRAINTS: [(&str, &str); 3] = [
    ("ref", "panic :- emp(E,D,S) & not dept(D)."),
    ("floor", "panic :- emp(E,D,S) & salRange(D,L,H) & S < L."),
    ("ceiling", "panic :- emp(E,D,S) & salRange(D,L,H) & S > H."),
];

/// Departments `d0..d49` exist for the whole run and carry a salary range.
pub const DEPTS: usize = 50;
/// Every department's salary band.
pub const SALARY_BAND: (i64, i64) = (10, 200);
/// Inserts a client keeps live; older ones are deleted by its churn steps.
pub const LIVE_PER_CLIENT: usize = 64;
/// One request in this many carries a violating update.
pub const VIOLATION_EVERY: u64 = 16;
/// A client thinks for a uniformly random time up to this long between an
/// ack and its next request. Without it, two closed-loop clients can lock
/// into sending in the same microsecond; whether the second request then
/// joins the first one's commit group is decided by how long the admit
/// thread takes to wake up (4 to 40 µs on the same host, hour to hour), and
/// the run lands in one of two stable regimes a factor of two apart in
/// throughput.
pub const THINK_MAX: std::time::Duration = std::time::Duration::from_millis(2);
/// `e6-mixed-batch` churns extra departments drawn from the ring
/// `d50..d99`; this many are live in the base store.
const EXTRA_RING: usize = 50;
const EXTRA_LIVE: usize = 8;
/// Churn steps per `e6-mixed-batch` request (12 of its 16 updates).
const BATCH_CHURN_STEPS: usize = 6;

/// One workload: which store, which traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json` / the README: why this workload exists.
    pub why: &'static str,
    /// Base employees `e0..e{N-1}`.
    pub employees: usize,
    /// Closed-loop submitter threads.
    pub submitters: usize,
    /// `dept` and `salRange` are `Locality::Remote`: only `emp` is local
    /// information, so inserts must pass the complete local test.
    pub partial: bool,
    /// 16-update requests, certificates on, a paced reader beside the
    /// single submitter.
    pub batch: bool,
    /// Shard servers the store is hash co-partitioned over.
    pub shards: usize,
    /// Requests the traced replay (and the TCP probe before it) cover at a
    /// 30-second window; scaled with `--seconds`.
    pub traced_requests: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "e6-churn",
        why: "all-Local 100k store, 2 clients, 1 delete+insert per Submit: checks are cheap, so the commit path (apply, snapshot publish, WAL, queue, wire) does the work",
        employees: 100_000,
        submitters: 2,
        partial: false,
        batch: false,
        shards: 1,
        traced_requests: 400,
    },
    Spec {
        name: "e6-partial",
        why: "same stream on an 8k store with dept/salRange Remote (the paper's setting): every insert needs the complete local test, so checking dominates and commit changes must not move it",
        employees: 8_000,
        submitters: 2,
        partial: true,
        batch: false,
        shards: 1,
        traced_requests: 60,
    },
    Spec {
        name: "e6-mixed-batch",
        why: "16-update requests with dept inserts/deletes, certificates on and a 200 Hz reader: batches, deletes under negation, proof bytes and reads beside writes use the same layers differently",
        employees: 100_000,
        submitters: 1,
        partial: false,
        batch: true,
        shards: 1,
        traced_requests: 60,
    },
    Spec {
        name: "e6-fleet2",
        why: "the e6-churn stream over 2 hash co-partitioned shard servers via FleetClient: fixed per-request costs take their largest share and per-group costs halve with the fragment",
        employees: 100_000,
        submitters: 2,
        partial: false,
        batch: false,
        shards: 2,
        traced_requests: 400,
    },
];

pub fn spec(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|s| s.name == name)
}

impl Spec {
    /// `--smoke`: the same shapes on a store 50 times smaller.
    pub fn smoke(mut self) -> Spec {
        self.employees /= 50;
        self.traced_requests = (self.traced_requests / 10).max(8);
        self
    }

    /// The fleet's routing table (meaningful when `shards > 1`): `emp` and
    /// `dept` co-partitioned on the department, `salRange` everywhere.
    pub fn partitioning(&self) -> Partitioning {
        Partitioning::new(self.shards)
            .hash("emp", 1)
            .hash("dept", 0)
            .replicate("salRange")
    }

    /// The store each shard server starts from: the whole store on one
    /// server, its fragments under [`Spec::partitioning`] on a fleet.
    pub fn fragments(&self, whole: &Database) -> Result<Vec<Database>, String> {
        if self.shards > 1 {
            self.partitioning()
                .fragments(whole)
                .map_err(|e| e.to_string())
        } else {
            Ok(vec![whole.clone()])
        }
    }
}

/// What the generator expects the program to answer for one update.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    Admit,
    /// Rejected, with exactly this constraint reported violated.
    Reject(&'static str),
}

/// One `Submit`: the updates and the verdict each must get.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    pub updates: Vec<Update>,
    pub expect: Vec<Expect>,
}

impl Request {
    fn push(&mut self, update: Update, expect: Expect) {
        self.updates.push(update);
        self.expect.push(expect);
    }

    pub fn has_violation(&self) -> bool {
        self.expect.iter().any(|e| matches!(e, Expect::Reject(_)))
    }
}

fn dept_name(d: usize) -> String {
    format!("d{d}")
}

/// The request stream of one client. Streams never look at the program's
/// answers: the live set is tracked from the expected verdicts, so the same
/// seed yields the same bytes however the run interleaves.
pub struct ClientStream {
    rng: StdRng,
    /// Draws the think times; separate, so pacing never shifts the requests.
    pace: StdRng,
    client: usize,
    batch: bool,
    next_name: u64,
    requests: u64,
    violations: u64,
    /// This client's live inserts, oldest first.
    live: VecDeque<Tuple>,
    /// Live extra departments (ring positions), oldest first.
    extras: VecDeque<usize>,
    next_extra: usize,
}

impl ClientStream {
    /// The stream of client `client`; its first `LIVE_PER_CLIENT` tuples are
    /// part of the base store (see [`base_db`]), so request 0 is already a
    /// steady-state churn step.
    pub fn new(spec: &Spec, seed: u64, client: usize) -> ClientStream {
        let mut stream = ClientStream {
            rng: StdRng::seed_from_u64(
                seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            pace: StdRng::seed_from_u64(seed.rotate_left(17) ^ client as u64),
            client,
            batch: spec.batch,
            next_name: 0,
            requests: 0,
            violations: 0,
            live: VecDeque::with_capacity(LIVE_PER_CLIENT + 1),
            extras: (0..EXTRA_LIVE).collect(),
            next_extra: EXTRA_LIVE,
        };
        for _ in 0..LIVE_PER_CLIENT {
            let t = stream.fresh_emp();
            stream.live.push_back(t);
        }
        stream
    }

    /// How long the client thinks before its next request.
    pub fn think_time(&mut self) -> std::time::Duration {
        let max = THINK_MAX.as_micros() as u64;
        std::time::Duration::from_micros(self.pace.random_range(0..=max))
    }

    /// The client's inserts that are live right now.
    pub fn live(&self) -> impl Iterator<Item = &Tuple> {
        self.live.iter()
    }

    fn fresh_emp(&mut self) -> Tuple {
        let name = format!("c{}k{}", self.client, self.next_name);
        self.next_name += 1;
        let dept = dept_name(self.rng.random_range(0..DEPTS));
        let salary = self.rng.random_range(SALARY_BAND.0..=SALARY_BAND.1);
        tuple![name, dept, salary]
    }

    /// An insert exactly one constraint must reject, rotating over the
    /// family: dangling department, salary below the band, salary above.
    fn violating_emp(&mut self) -> (Tuple, &'static str) {
        let name = format!("c{}v{}", self.client, self.violations);
        let dept = dept_name(self.rng.random_range(0..DEPTS));
        let kind = self.violations % 3;
        self.violations += 1;
        match kind {
            0 => (tuple![name, "ghost", SALARY_BAND.0 + 50], "ref"),
            1 => (tuple![name, dept, SALARY_BAND.0 - 1], "floor"),
            _ => (tuple![name, dept, SALARY_BAND.1 + 1], "ceiling"),
        }
    }

    /// `[delete oldest live insert, insert a fresh employee]`. The delete is
    /// omitted while fewer than `LIVE_PER_CLIENT` inserts are live (after a
    /// rejected insert), so the store size does not depend on speed.
    fn churn_step(&mut self, violate: bool, req: &mut Request) {
        if self.live.len() >= LIVE_PER_CLIENT {
            let oldest = self.live.pop_front().expect("live set is non-empty");
            req.push(Update::delete("emp", oldest), Expect::Admit);
        }
        if violate {
            let (t, by) = self.violating_emp();
            req.push(Update::insert("emp", t), Expect::Reject(by));
        } else {
            let t = self.fresh_emp();
            self.live.push_back(t.clone());
            req.push(Update::insert("emp", t), Expect::Admit);
        }
    }

    fn insert_extra_dept(&mut self, req: &mut Request) {
        let slot = self.next_extra;
        self.next_extra = (self.next_extra + 1) % EXTRA_RING;
        self.extras.push_back(slot);
        req.push(
            Update::insert("dept", tuple![dept_name(DEPTS + slot)]),
            Expect::Admit,
        );
    }

    fn delete_extra_dept(&mut self, req: &mut Request) {
        let slot = self
            .extras
            .pop_front()
            .expect("an extra department is live");
        req.push(
            Update::delete("dept", tuple![dept_name(DEPTS + slot)]),
            Expect::Admit,
        );
    }

    pub fn next_request(&mut self) -> Request {
        let violate = self.requests % VIOLATION_EVERY == VIOLATION_EVERY - 1;
        self.requests += 1;
        let mut req = Request {
            updates: Vec::new(),
            expect: Vec::new(),
        };
        if !self.batch {
            self.churn_step(violate, &mut req);
            return req;
        }
        for step in 0..BATCH_CHURN_STEPS {
            // The violating insert sits mid-batch, so admitted updates on
            // both sides of a rejection are exercised.
            self.churn_step(violate && step == BATCH_CHURN_STEPS / 2, &mut req);
        }
        // Two fresh extra departments in, the two oldest out. On a violating
        // request a delete of a referenced department (every d0..d49 has
        // employees, so `ref` must reject it) takes the place of, in turn,
        // one extra delete or one extra insert, so the number of extra
        // departments stays within one of `EXTRA_LIVE` however long the run.
        let (inserts, deletes) = match (violate, self.violations % 2) {
            (false, _) => (2, 2),
            (true, 0) => (2, 1),
            (true, _) => (1, 2),
        };
        for _ in 0..inserts {
            self.insert_extra_dept(&mut req);
        }
        for _ in 0..deletes {
            self.delete_extra_dept(&mut req);
        }
        if violate {
            let referenced = dept_name(self.rng.random_range(0..DEPTS));
            req.push(
                Update::delete("dept", tuple![referenced]),
                Expect::Reject("ref"),
            );
        }
        req
    }
}

/// The store every server of the workload starts from (before
/// fragmenting, on a fleet): 50 departments with their salary bands, `N`
/// employees uniform over departments with in-band salaries, plus each
/// client's first `LIVE_PER_CLIENT` inserts.
///
/// The first 100 employees pin salary 10 and salary 200 in every
/// department and are never deleted, so an in-band insert passes the
/// complete local test (`e6-partial`) whatever the churn did, and every
/// department stays referenced.
pub fn base_db(spec: &Spec, seed: u64) -> Database {
    let remote = if spec.partial {
        Locality::Remote
    } else {
        Locality::Local
    };
    let mut db = Database::new();
    db.declare("emp", 3, Locality::Local).expect("fresh schema");
    db.declare("dept", 1, remote).expect("fresh schema");
    db.declare("salRange", 3, remote).expect("fresh schema");
    for d in 0..DEPTS {
        db.insert("dept", tuple![dept_name(d)]).expect("declared");
        db.insert(
            "salRange",
            tuple![dept_name(d), SALARY_BAND.0, SALARY_BAND.1],
        )
        .expect("declared");
    }
    if spec.batch {
        for slot in 0..EXTRA_LIVE {
            db.insert("dept", tuple![dept_name(DEPTS + slot)])
                .expect("declared");
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..spec.employees {
        let (dept, salary) = if i < DEPTS {
            (i, SALARY_BAND.0)
        } else if i < 2 * DEPTS {
            (i - DEPTS, SALARY_BAND.1)
        } else {
            (
                rng.random_range(0..DEPTS),
                rng.random_range(SALARY_BAND.0..=SALARY_BAND.1),
            )
        };
        db.insert("emp", tuple![format!("e{i}"), dept_name(dept), salary])
            .expect("declared");
    }
    for client in 0..spec.submitters {
        for t in ClientStream::new(spec, seed, client).live() {
            db.insert("emp", t.clone()).expect("declared");
        }
    }
    db
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccpi::ConstraintManager;
    use ccpi_server::proto::{encode_requests, ServerRequest};

    fn frames(spec: &Spec, seed: u64, client: usize, n: usize) -> Vec<Vec<u8>> {
        let mut stream = ClientStream::new(spec, seed, client);
        (0..n)
            .map(|k| {
                let updates = stream.next_request().updates;
                encode_requests(k as u64, &[ServerRequest::Submit { updates }])
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams() {
        for spec in WORKLOADS {
            for client in 0..spec.submitters {
                assert_eq!(
                    frames(&spec, 7, client, 200),
                    frames(&spec, 7, client, 200),
                    "{} client {client}",
                    spec.name
                );
            }
            let thinks = |seed| {
                let mut stream = ClientStream::new(&spec, seed, 0);
                (0..50).map(|_| stream.think_time()).collect::<Vec<_>>()
            };
            assert_eq!(thinks(7), thinks(7));
            assert!(thinks(7).iter().all(|t| *t <= THINK_MAX));
            assert_ne!(frames(&spec, 7, 0, 50), frames(&spec, 8, 0, 50));
            assert_ne!(frames(&spec, 7, 0, 50), frames(&spec, 7, 1, 50));
        }
    }

    #[test]
    fn store_size_stays_bounded() {
        for spec in WORKLOADS.map(Spec::smoke) {
            let target = (spec.employees + LIVE_PER_CLIENT * spec.submitters) as i64;
            let mut streams: Vec<_> = (0..spec.submitters)
                .map(|c| ClientStream::new(&spec, 3, c))
                .collect();
            let mut emp = base_db(&spec, 3).relation("emp").unwrap().len() as i64;
            assert_eq!(emp, target, "{}", spec.name);
            for step in 0..10_000 {
                let req = streams[step % spec.submitters].next_request();
                if spec.batch {
                    // The churn step after a rejected insert omits its delete.
                    let expected = if req.has_violation() { 15 } else { 16 };
                    assert_eq!(req.updates.len(), expected);
                }
                for (u, e) in req.updates.iter().zip(&req.expect) {
                    if *e == Expect::Admit && u.pred().as_str() == "emp" {
                        emp += if u.is_insert() { 1 } else { -1 };
                    }
                }
                assert!(
                    (emp - target).abs() <= 16,
                    "{} step {step}: {emp}",
                    spec.name
                );
            }
        }
    }

    /// The expected-verdict model against a single-threaded manager judging
    /// each update on the evolving state, as the admission pipeline does.
    #[test]
    fn expected_verdicts_agree_with_a_manager_twin() {
        for spec in WORKLOADS.map(Spec::smoke) {
            let mut twin = ConstraintManager::new(base_db(&spec, 11));
            for (name, source) in CONSTRAINTS {
                twin.add_constraint(name, source).unwrap();
            }
            let mut streams: Vec<_> = (0..spec.submitters)
                .map(|c| ClientStream::new(&spec, 11, c))
                .collect();
            let mut steps = 0;
            while steps < 2_000 {
                let client = steps % spec.submitters;
                let req = streams[client].next_request();
                for (u, e) in req.updates.iter().zip(&req.expect) {
                    let report = twin.check_update(u).unwrap();
                    assert!(report.unknowns().is_empty(), "{}: {u} unknown", spec.name);
                    let got = match report.violations().as_slice() {
                        [] => Expect::Admit,
                        [one] => {
                            Expect::Reject(CONSTRAINTS.iter().find(|(n, _)| n == one).unwrap().0)
                        }
                        many => panic!("{}: {u} violates {many:?}", spec.name),
                    };
                    assert_eq!(got, *e, "{}: {u}", spec.name);
                    if got == Expect::Admit {
                        twin.apply_update(u).unwrap();
                    }
                    steps += 1;
                }
            }
        }
    }
}
