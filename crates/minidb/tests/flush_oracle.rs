//! The concurrent-commit crash oracle: acknowledged commits survive.
//!
//! K logical clients stage commits and reads through one [`LogFlusher`]
//! against two `MemDevice`s, with a WAL so small (2–4 blocks) that in-load
//! checkpoints happen within a handful of commits. An adversarial scheduler
//! decides who acts next and delivers the block writes of the plan in flight
//! one at a time, in any order within a phase. At *every* point it reaches,
//! the storage is stopped — as it stands, and once more for every write in
//! flight with that write torn — and `MiniDb::recover` must
//!
//! (a) succeed and contain every commit whose waiter was released,
//! (b) hold exactly a hole-free prefix of the LSN-ordered history,
//! (c) contain everything any released read observed, and
//! (d) resume service and survive a second crash.
//!
//! Bounded-exhaustive up to 3 clients × 3 commits (a depth-first walk over
//! the scheduler's choices that visits each distinct state once; the 3 × 3
//! corner is `#[ignore]`d for the debug profile and run in release by CI),
//! seeded random schedules beyond.
//!
//! Mutation checks (done by hand when this test was written): flushing the
//! log phase ahead of the checkpoint phases in `MiniDb::flush` fails the
//! 2 × 2 walk ("LSN 3 was acknowledged, the log recovers to 0"); counting
//! a plan durable once its first phase is written in
//! `LogFlusher::write_done` fails the 2 × 3 walk ("LSN 4 was acknowledged,
//! the log recovers to 3").
//!
//! The negative control documents why the flusher exists: the same
//! scheduler driving one `commit(tx)` plan per commit, all in flight
//! together — the discipline the drivers had before — *finds* an
//! acknowledged commit lost after an in-load checkpoint, on the most benign
//! schedule there is (every write delivered in the order it was issued).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};

use proptest::prelude::*;
use tsuru_minidb::{
    DbConfig, DbVol, IoPlan, IoRequest, LogFlusher, MiniDb, Progress, TableId, MAX_VALUE,
};
use tsuru_sim::DetRng;
use tsuru_storage::{content_hash, BlockDevice, BlockDeviceMut, MemDevice, BLOCK_SIZE};

const T: TableId = TableId(5);
const DATA_BLOCKS: u64 = 64;

fn cfg(wal_blocks: u64) -> DbConfig {
    DbConfig {
        data_blocks: DATA_BLOCKS,
        wal_blocks,
        checkpoint_threshold: 0.8,
    }
}

// ----- the scheduler's choices -------------------------------------------------

/// Where the scheduler gets its decisions from.
trait Choose {
    /// One of `n > 0` alternatives.
    fn pick(&mut self, n: usize) -> usize;
    /// Has the walk reached a point no earlier run visited? (Crash checks
    /// run only there, so a shared prefix is checked once.)
    fn fresh(&self) -> bool;
    /// Is this the first visit of the state with this fingerprint? A walk
    /// that remembers says no the second time, and the run ends there.
    fn first_visit(&mut self, _fingerprint: u64) -> bool {
        true
    }
}

/// Depth-first enumeration of every choice sequence, by replay: each run
/// follows the recorded path and extends it with first alternatives;
/// [`Dfs::advance`] moves to the next unexplored branch.
#[derive(Default)]
struct Dfs {
    /// `(choice, alternatives)` at each depth of the current run.
    path: Vec<(usize, usize)>,
    pos: usize,
    /// Depth of the choice that differs from the previous run.
    fresh_from: usize,
    /// Fingerprints of the states visited so far.
    seen: BTreeSet<u64>,
}

impl Dfs {
    fn advance(&mut self) -> bool {
        while let Some((choice, n)) = self.path.pop() {
            if choice + 1 < n {
                self.path.push((choice + 1, n));
                self.fresh_from = self.path.len();
                self.pos = 0;
                return true;
            }
        }
        false
    }
}

impl Choose for Dfs {
    fn pick(&mut self, n: usize) -> usize {
        let choice = match self.path.get(self.pos) {
            Some(&(choice, recorded)) => {
                assert_eq!(
                    recorded, n,
                    "a replayed schedule must offer the same choices"
                );
                choice
            }
            None => {
                self.path.push((0, n));
                0
            }
        };
        self.pos += 1;
        choice
    }

    fn fresh(&self) -> bool {
        self.pos >= self.fresh_from
    }

    fn first_visit(&mut self, fingerprint: u64) -> bool {
        self.seen.insert(fingerprint)
    }
}

/// A seeded random schedule; every point of it is new.
struct Random(DetRng);

impl Choose for Random {
    fn pick(&mut self, n: usize) -> usize {
        self.0.gen_range(n as u64) as usize
    }

    fn fresh(&self) -> bool {
        true
    }
}

// ----- the world under test ----------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Commit,
    Read,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Discipline {
    /// Stage, one flush in flight, waiters released at durability.
    Flusher,
    /// One `commit(tx)` plan per commit, every plan in flight at once,
    /// each acknowledged when its own last write is.
    PerCommit,
}

#[derive(Debug)]
enum Waiter {
    Commit { client: usize, lsn: u64 },
    Read { client: usize, lsn: u64 },
}

/// A per-commit plan in flight ([`Discipline::PerCommit`]).
struct SoloPlan {
    client: usize,
    lsn: u64,
    outstanding: usize,
    rest: VecDeque<Vec<IoRequest>>,
}

struct Client {
    script: Vec<Op>,
    next: usize,
    busy: bool,
}

type Rows = BTreeMap<u64, Vec<u8>>;

/// How a crash point failed the oracle.
#[derive(Debug)]
enum Violation {
    /// (a) — a commit was acknowledged and is not in the recovered log.
    AckedCommitLost {
        acked: u64,
        survived: u64,
        /// Checkpoints taken under load before the crash.
        checkpoints: u64,
    },
    /// (c) — a read was answered from state the recovered log lacks.
    ReadLost { observed: u64, survived: u64 },
    /// (a), (b), (d) — recovery failed, or returned something that is not
    /// a prefix of the history.
    Recovery(String),
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::AckedCommitLost {
                acked,
                survived,
                checkpoints,
            } => write!(
                f,
                "acknowledged commit lost: LSN {acked} was acknowledged, the log recovers \
                 to {survived} ({checkpoints} in-load checkpoints)"
            ),
            Violation::ReadLost { observed, survived } => write!(
                f,
                "a read was answered from LSN {observed}, the log recovers to {survived}"
            ),
            Violation::Recovery(why) => f.write_str(why),
        }
    }
}

struct World {
    discipline: Discipline,
    cfg: DbConfig,
    db: MiniDb,
    flusher: LogFlusher<Waiter>,
    wal: MemDevice,
    data: MemDevice,
    /// Writes issued and not delivered, oldest first, tagged with the
    /// flusher generation or the solo plan they belong to.
    in_flight: Vec<(u64, IoRequest)>,
    solo: Vec<SoloPlan>,
    /// Phases issued so far.
    phases: u64,
    /// Whether some, not all, writes of the phase in flight are delivered.
    mid_phase: bool,
    /// Whether anything a crash check looks at (the volumes, the writes in
    /// flight, what was acknowledged) changed since the last one.
    dirty: bool,
    clients: Vec<Client>,
    /// The write-set of every staged commit; LSN `n` is `history[n - 1]`.
    history: Vec<Vec<(u64, Vec<u8>)>>,
    /// Everything that happened, as far as the future can tell: who acted
    /// in which order and where each flush cut the log. With the writes
    /// in flight it identifies the state ([`World::fingerprint`]).
    trace: Vec<u64>,
    /// Highest LSN acknowledged to a committer.
    acked: u64,
    /// Highest LSN a released read reflects.
    observed: u64,
}

fn apply(io: &IoRequest, wal: &mut MemDevice, data: &mut MemDevice) {
    match io.vol {
        DbVol::Wal => wal.write_block(io.lba, &io.data),
        DbVol::Data => data.write_block(io.lba, &io.data),
    }
}

fn rows_of(db: &MiniDb) -> Rows {
    db.scan_table(T)
        .into_iter()
        .map(|(k, v)| (k, v.to_vec()))
        .collect()
}

impl World {
    fn new(discipline: Discipline, wal_blocks: u64, scripts: Vec<Vec<Op>>) -> Self {
        let cfg = cfg(wal_blocks);
        let (db, plan) = MiniDb::create("oracle", cfg.clone());
        let mut wal = MemDevice::new(cfg.wal_blocks);
        let mut data = MemDevice::new(cfg.data_blocks);
        for io in plan.phases.iter().flatten() {
            apply(io, &mut wal, &mut data);
        }
        World {
            discipline,
            flusher: LogFlusher::new(db.last_lsn()),
            cfg,
            db,
            wal,
            data,
            in_flight: Vec::new(),
            solo: Vec::new(),
            phases: 0,
            mid_phase: false,
            dirty: true,
            clients: scripts
                .into_iter()
                .map(|script| Client {
                    script,
                    next: 0,
                    busy: false,
                })
                .collect(),
            history: Vec::new(),
            trace: Vec::new(),
            acked: 0,
            observed: 0,
        }
    }

    fn model(&self, lsn: u64) -> Rows {
        let mut rows = Rows::new();
        for (k, v) in self.history.iter().take(lsn as usize).flatten() {
            rows.insert(*k, v.clone());
        }
        rows
    }

    /// Clients that may act now, after two reductions that keep every
    /// reachable crash state and drop schedules that only rename or reorder
    /// their way to it. Under the flusher nothing but a count changes while
    /// a phase is half delivered, so a client's step commutes with those
    /// deliveries and is only offered at phase boundaries (before a flush,
    /// between its phases, after it). And of several idle clients with the
    /// same script at the same position only the first is offered: they
    /// differ in name alone.
    fn ready(&self) -> Vec<usize> {
        if self.discipline == Discipline::Flusher && self.mid_phase {
            return Vec::new();
        }
        let idle = |c: &Client| !c.busy && c.next < c.script.len();
        let twin = |a: &Client, b: &Client| idle(a) && a.next == b.next && a.script == b.script;
        (0..self.clients.len())
            .filter(|&i| {
                let c = &self.clients[i];
                idle(c) && !self.clients[..i].iter().any(|earlier| twin(earlier, c))
            })
            .collect()
    }

    /// Two schedules that reach the same fingerprint are in the same state:
    /// same steps in the same order, same flush boundaries, same writes
    /// delivered. The walk continues from such a state once.
    fn fingerprint(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.trace.hash(&mut h);
        for (tag, io) in &self.in_flight {
            (tag, io.vol, io.lba, content_hash(&io.data)).hash(&mut h);
        }
        h.finish()
    }

    fn act(&mut self, client: usize) {
        self.trace.push((self.phases << 8) | client as u64);
        let c = &mut self.clients[client];
        let op = c.script[c.next];
        c.next += 1;
        c.busy = true;
        match op {
            Op::Read => {
                // Answered from memory: whatever is staged is visible.
                let lsn = self.db.last_lsn();
                assert_eq!(rows_of(&self.db), self.model(lsn));
                match self.discipline {
                    Discipline::Flusher => {
                        self.flusher.enqueue(lsn, Waiter::Read { client, lsn });
                        self.pump();
                    }
                    Discipline::PerCommit => self.release(Waiter::Read { client, lsn }),
                }
            }
            Op::Commit => {
                // Two rows of a thousand bytes: three records fill a
                // two-block WAL to its checkpoint threshold.
                let n = self.history.len() as u64 + 1;
                let writes: Vec<(u64, Vec<u8>)> = [client as u64, 100 + n % 7]
                    .into_iter()
                    .map(|k| (k, vec![(n % 251) as u8; MAX_VALUE - 24]))
                    .collect();
                let tx = self.db.begin();
                for (k, v) in &writes {
                    self.db.put(tx, T, *k, v);
                }
                self.history.push(writes);
                match self.discipline {
                    Discipline::Flusher => {
                        let lsn = self.db.stage(tx).expect("a commit with writes has an LSN");
                        assert_eq!(lsn, n);
                        self.flusher.enqueue(lsn, Waiter::Commit { client, lsn });
                        self.pump();
                    }
                    Discipline::PerCommit => {
                        let plan = self.db.commit(tx);
                        let mut rest = VecDeque::from(plan.phases);
                        let first = rest.pop_front().expect("a commit writes something");
                        let id = self.solo.len() as u64;
                        self.solo.push(SoloPlan {
                            client,
                            lsn: n,
                            outstanding: first.len(),
                            rest,
                        });
                        self.issue(id, first);
                    }
                }
            }
        }
    }

    fn issue(&mut self, tag: u64, phase: Vec<IoRequest>) {
        self.phases += 1;
        self.mid_phase = false;
        self.dirty = true;
        self.in_flight.extend(phase.into_iter().map(|io| (tag, io)));
    }

    fn release(&mut self, waiter: Waiter) {
        let (Waiter::Commit { client, .. } | Waiter::Read { client, .. }) = waiter;
        self.clients[client].busy = false;
        self.dirty = true;
        match waiter {
            Waiter::Commit { lsn, .. } => self.acked = self.acked.max(lsn),
            Waiter::Read { lsn, .. } => self.observed = self.observed.max(lsn),
        }
    }

    /// The driver's loop, exactly as `ecom::driver::pump` runs it.
    fn pump(&mut self) {
        if self.flusher.idle() {
            let plan: IoPlan = self.db.flush();
            if !plan.is_empty() {
                self.trace.push(1 << 32 | self.db.last_lsn());
                let (generation, phase) = self.flusher.begin_flush(self.db.last_lsn(), plan);
                self.issue(generation, phase);
            }
        }
        while let Some((waiter, ok)) = self.flusher.pop_released() {
            assert!(ok, "no write fails in this world");
            self.release(waiter);
        }
    }

    fn deliver(&mut self, at: usize) {
        let (tag, io) = self.in_flight.remove(at);
        apply(&io, &mut self.wal, &mut self.data);
        self.mid_phase = true;
        self.dirty = true;
        match self.discipline {
            Discipline::Flusher => match self.flusher.write_done(tag, true) {
                Progress::Pending => {}
                Progress::Phase(next) => self.issue(tag, next),
                Progress::Done(ok) => {
                    assert!(ok);
                    assert!(self.in_flight.is_empty(), "one plan in flight at a time");
                    self.mid_phase = false;
                    self.pump();
                }
                Progress::Stale => panic!("no restart in this world"),
            },
            Discipline::PerCommit => {
                let plan = &mut self.solo[tag as usize];
                plan.outstanding -= 1;
                if plan.outstanding > 0 {
                    return;
                }
                match plan.rest.pop_front() {
                    Some(next) => {
                        plan.outstanding = next.len();
                        self.issue(tag, next);
                    }
                    None => {
                        let (client, lsn) = (plan.client, plan.lsn);
                        self.release(Waiter::Commit { client, lsn });
                    }
                }
            }
        }
    }

    /// Stop the storage here — as it stands, and with each WAL write in
    /// flight torn — and hold recovery to (a)–(d).
    fn check_crashes(&self, tear: &mut DetRng) -> Result<(), (String, Violation)> {
        let at = |what: &str| {
            let what = what.to_string();
            move |v| (what, v)
        };
        self.check_crash(&self.wal).map_err(at("as it stands"))?;
        for (_, io) in self.in_flight.iter().filter(|(_, io)| io.vol == DbVol::Wal) {
            let cut = 1 + tear.gen_range(BLOCK_SIZE as u64 - 1) as usize;
            let mut torn = self
                .wal
                .read_block(io.lba)
                .map_or_else(|| vec![0; BLOCK_SIZE], |b| b.to_vec());
            torn[..cut].copy_from_slice(&io.data[..cut]);
            let mut wal = self.wal.clone();
            wal.write_block(io.lba, &torn);
            self.check_crash(&wal)
                .map_err(at(&format!("WAL block {} torn at byte {cut}", io.lba)))?;
        }
        Ok(())
    }

    fn check_crash(&self, wal: &MemDevice) -> Result<(), Violation> {
        let staged = self.history.len() as u64;
        let (mut db, _) = MiniDb::recover("crashed", wal, &self.data, self.cfg.clone())
            .map_err(|e| Violation::Recovery(format!("recovery failed: {e}")))?;
        let survived = db.last_lsn();
        if survived < self.acked {
            return Err(Violation::AckedCommitLost {
                acked: self.acked,
                survived,
                checkpoints: self.db.stats().checkpoints - 1, // creation is the first
            });
        }
        if survived < self.observed {
            return Err(Violation::ReadLost {
                observed: self.observed,
                survived,
            });
        }
        if survived > staged || rows_of(&db) != self.model(survived) {
            return Err(Violation::Recovery(format!(
                "recovered state is not the history up to LSN {survived}"
            )));
        }
        // A second life on the surviving images, and a second crash.
        let mut wal = wal.clone();
        let mut data = self.data.clone();
        let mut model = self.model(survived);
        for i in 0..3u64 {
            let tx = db.begin();
            let value = vec![0xEE; MAX_VALUE];
            db.put(tx, T, 900 + i, &value);
            model.insert(900 + i, value);
            for io in db.commit(tx).phases.iter().flatten() {
                apply(io, &mut wal, &mut data);
            }
        }
        let (again, _) = MiniDb::recover("again", &wal, &data, self.cfg.clone())
            .map_err(|e| Violation::Recovery(format!("second recovery failed: {e}")))?;
        if rows_of(&again) != model {
            return Err(Violation::Recovery(
                "the second life lost or invented rows".into(),
            ));
        }
        Ok(())
    }
}

/// What one schedule did.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    /// Crash points checked.
    points: u64,
    /// In-load checkpoints taken.
    checkpoints: u64,
    /// Most commits one flush carried.
    max_group: u64,
}

/// Run one schedule to the end, checking every new point it reaches.
fn run(
    discipline: Discipline,
    wal_blocks: u64,
    scripts: &[Vec<Op>],
    chooser: &mut dyn Choose,
    tear: &mut DetRng,
) -> Result<(Tally, World), (String, Violation)> {
    let mut world = World::new(discipline, wal_blocks, scripts.to_vec());
    let mut tally = Tally::default();
    loop {
        let ready = world.ready();
        let choices = ready.len() + world.in_flight.len();
        if choices == 0 {
            break;
        }
        let choice = chooser.pick(choices);
        match ready.get(choice) {
            Some(&client) => world.act(client),
            None => world.deliver(choice - ready.len()),
        }
        if !chooser.fresh() {
            world.dirty = false; // checked by the run that first came here
            continue;
        }
        if !chooser.first_visit(world.fingerprint()) {
            return Ok((tally, world));
        }
        if std::mem::take(&mut world.dirty) {
            tally.points += 1;
            world.check_crashes(tear)?;
        }
    }
    let commits = scripts
        .iter()
        .flatten()
        .filter(|&&op| op == Op::Commit)
        .count() as u64;
    assert!(world
        .clients
        .iter()
        .all(|c| !c.busy && c.next == c.script.len()));
    assert_eq!(
        world.acked, commits,
        "every commit is acknowledged in the end"
    );
    tally.checkpoints = world.db.stats().checkpoints - 1; // creation is the first
    tally.max_group = world.db.stats().max_group;
    Ok((tally, world))
}

/// Every schedule of `scripts`, depth first.
fn explore(
    discipline: Discipline,
    wal_blocks: u64,
    scripts: &[Vec<Op>],
) -> Result<(u64, Tally), (String, Violation)> {
    let mut dfs = Dfs::default();
    let mut tear = DetRng::new(0x7EA2);
    let mut schedules = 0u64;
    let mut total = Tally::default();
    loop {
        let (t, _) = run(discipline, wal_blocks, scripts, &mut dfs, &mut tear)?;
        schedules += 1;
        total.points += t.points;
        total.checkpoints = total.checkpoints.max(t.checkpoints);
        total.max_group = total.max_group.max(t.max_group);
        if !dfs.advance() {
            return Ok((schedules, total));
        }
    }
}

fn committers(clients: usize, commits: usize) -> Vec<Vec<Op>> {
    vec![vec![Op::Commit; commits]; clients]
}

/// Walk every schedule of `clients` committers of `commits` commits each.
fn walk(clients: usize, commits: usize) {
    let (schedules, tally) = explore(Discipline::Flusher, 2, &committers(clients, commits))
        .unwrap_or_else(|(at, v)| panic!("{clients} clients x {commits} commits, {at}: {v}"));
    println!(
        "{clients} x {commits}: {schedules} schedules, {} crash points, \
         <= {} checkpoints, <= {} commits per flush",
        tally.points, tally.checkpoints, tally.max_group
    );
    // The walk must have met what it is there for: a checkpoint under load
    // once four commits are in play, and group commit once three clients
    // are (the first starts a flush, the other two share the next).
    assert_eq!(tally.checkpoints >= 1, clients * commits >= 4);
    assert_eq!(tally.max_group >= 2, clients >= 3);
}

#[test]
fn every_schedule_of_up_to_six_commits_recovers_every_acked_commit() {
    for clients in 1..=3 {
        for commits in 1..=3 {
            if clients * commits <= 6 {
                walk(clients, commits);
            }
        }
    }
}

/// The corner of the bound: 22 273 schedules, 28 795 crash points, two
/// in-load checkpoints — 4 s optimized, minutes in the debug profile, so CI
/// runs it with `cargo test --release -- --ignored`.
#[test]
#[ignore = "minutes unoptimized; CI runs it in release"]
fn every_schedule_of_three_clients_by_three_commits_recovers_every_acked_commit() {
    walk(3, 3);
}

#[test]
fn every_schedule_with_reads_answers_them_from_durable_state() {
    // A reader between two committers, and readers that commit: the read's
    // answer reflects staged commits, so it is released only with them.
    let scripts = [
        vec![
            vec![Op::Commit, Op::Read, Op::Commit],
            vec![Op::Read, Op::Commit, Op::Commit],
        ],
        vec![
            vec![Op::Commit, Op::Commit],
            vec![Op::Read, Op::Read],
            vec![Op::Commit, Op::Commit],
        ],
    ];
    for scripts in scripts {
        let (schedules, tally) = explore(Discipline::Flusher, 2, &scripts)
            .unwrap_or_else(|(at, v)| panic!("{scripts:?}, {at}: {v}"));
        println!(
            "{scripts:?}: {schedules} schedules, {} crash points",
            tally.points
        );
        assert!(tally.checkpoints >= 1);
    }
}

/// Why the flusher exists. A commit that crosses the WAL threshold emits
/// `[pages][superblock][block 0 of the new epoch]`; the next commit's
/// single-phase plan — a newer image of the same block 0 — is issued while
/// the first is still writing pages. It reaches the volume before the
/// superblock that makes its epoch current, so a crash there recovers
/// nothing of the old epoch's acknowledged tail; and when the checkpointing
/// plan's own, older image of block 0 lands last it cuts the log short for
/// good, with no crash at all. First-in-first-out delivery is enough.
#[test]
fn negative_control_concurrent_per_commit_plans_lose_an_acknowledged_commit() {
    /// Clients first, then the oldest write in flight.
    struct Fifo {
        crash_everywhere: bool,
    }
    impl Choose for Fifo {
        fn pick(&mut self, _: usize) -> usize {
            0
        }
        fn fresh(&self) -> bool {
            self.crash_everywhere
        }
    }
    let lost_after_checkpoint = |v: &Violation| matches!(v, Violation::AckedCommitLost { checkpoints, .. } if *checkpoints >= 1);
    let scripts = committers(3, 3);
    let mut tear = DetRng::new(1);

    let mut everywhere = Fifo {
        crash_everywhere: true,
    };
    let Err((at, lost)) = run(
        Discipline::PerCommit,
        2,
        &scripts,
        &mut everywhere,
        &mut tear,
    ) else {
        panic!("concurrent per-commit plans must lose an acknowledged commit");
    };
    println!("counterexample, {at}: {lost}");
    assert!(lost_after_checkpoint(&lost), "{lost}");

    // With no crash at all: every write lands, every commit is
    // acknowledged, and the volumes do not hold them.
    let mut nowhere = Fifo {
        crash_everywhere: false,
    };
    let Ok((_, world)) = run(Discipline::PerCommit, 2, &scripts, &mut nowhere, &mut tear) else {
        unreachable!("nothing is checked on the way");
    };
    let lost = world
        .check_crash(&world.wal)
        .expect_err("the quiesced volumes must lack an acknowledged commit");
    println!("counterexample, quiesced: {lost}");
    assert!(lost_after_checkpoint(&lost), "{lost}");

    // The same schedule is safe through the flusher.
    if let Err((at, v)) = run(Discipline::Flusher, 2, &scripts, &mut everywhere, &mut tear) {
        panic!("first-in-first-out through the flusher, {at}: {v}");
    }
}

fn script_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![3 => Just(Op::Commit), 1 => Just(Op::Read)],
        1..=6,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Beyond the exhaustive bound: more clients, longer scripts, reads
    /// mixed in, 2–4 WAL blocks, one seeded random schedule each.
    #[test]
    fn random_schedules_beyond_the_bound(
        scripts in prop::collection::vec(script_strategy(), 1..=5),
        wal_blocks in 2u64..=4,
        seed in any::<u64>(),
    ) {
        let mut chooser = Random(DetRng::new(seed));
        let mut tear = DetRng::new(seed ^ 0x7EA2);
        if let Err((at, v)) = run(Discipline::Flusher, wal_blocks, &scripts, &mut chooser, &mut tear) {
            prop_assert!(false, "{}: {}", at, v);
        }
    }
}
