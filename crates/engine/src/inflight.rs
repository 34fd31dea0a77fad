//! In-flight job coalescing across concurrent campaigns.
//!
//! Two campaigns running at the same time on one [`crate::Engine`] (e.g.
//! two `repro serve` requests) can miss the memo table for the same job
//! fingerprint and simulate it twice. The [`InflightTable`] closes that
//! window: the first campaign to claim a fingerprint becomes its *leader*
//! and simulates it; every later claimant becomes a *follower* and waits
//! for the leader's published measurement instead of re-simulating.
//!
//! # Waiter accounting
//!
//! A leader holds a [`LeaderGuard`]. Publishing hands the measurement to
//! every follower and retires the entry. If the guard is dropped without
//! publishing — the leading campaign panicked or hit a terminal error —
//! the slot flips to a failed state and every follower's
//! [`FollowerTicket::wait`] returns a clean error immediately: no waiter
//! ever hangs on an abandoned job, and nothing partial reaches the memo
//! (publication inserts into the memo and completes the slot in one
//! protocol step, so a job is either fully published or not at all).

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use horizon_core::campaign::Measurement;

use crate::fingerprint::Fingerprint;

/// Locks a mutex, recovering the data from a poisoned lock: the table must
/// stay usable while a panicking leader unwinds (that unwind is exactly
/// when followers need to observe the failure).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Lifecycle of one in-flight job.
#[derive(Debug)]
enum SlotState {
    /// The leader is still working on it.
    Running,
    /// The leader published; followers read the measurement. Boxed so the
    /// common `Running` state stays one word wide.
    Done(Box<Measurement>),
    /// The leader abandoned the job; followers get the error.
    Failed(String),
}

/// One in-flight job: its state plus the condvar followers park on.
#[derive(Debug)]
struct Slot {
    state: Mutex<SlotState>,
    changed: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: Mutex::new(SlotState::Running),
            changed: Condvar::new(),
        }
    }
}

/// The engine-wide registry of jobs currently being simulated, keyed by
/// job fingerprint.
#[derive(Debug, Default)]
pub(crate) struct InflightTable {
    slots: Mutex<HashMap<Fingerprint, Arc<Slot>>>,
    /// Followers currently blocked in [`FollowerTicket::wait`].
    waiting: Arc<AtomicUsize>,
}

/// Outcome of [`InflightTable::claim`].
pub(crate) enum Claim<'t> {
    /// This campaign owns the job: simulate it and publish.
    Leader(LeaderGuard<'t>),
    /// Another campaign owns it: wait for its result.
    Follower(FollowerTicket),
}

impl InflightTable {
    /// Claims a fingerprint: the first claimant leads, later claimants
    /// follow. Callers serialize claims against memo publication by
    /// holding the memo lock across the memo probe and this call (see
    /// `Engine::measure_profiles`), which makes "in memo or in flight or
    /// never started" an invariant rather than a race.
    pub(crate) fn claim(&self, fingerprint: &Fingerprint) -> Claim<'_> {
        let mut slots = lock(&self.slots);
        if let Some(slot) = slots.get(fingerprint) {
            Claim::Follower(FollowerTicket {
                slot: Arc::clone(slot),
                waiting: Arc::clone(&self.waiting),
            })
        } else {
            let slot = Arc::new(Slot::new());
            slots.insert(fingerprint.clone(), Arc::clone(&slot));
            Claim::Leader(LeaderGuard {
                table: self,
                fingerprint: fingerprint.clone(),
                slot,
                published: false,
            })
        }
    }

    /// Followers currently blocked waiting on a leader.
    pub(crate) fn waiting(&self) -> usize {
        self.waiting.load(Ordering::SeqCst)
    }

    /// Fingerprints currently claimed by a leader.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        lock(&self.slots).len()
    }
}

/// Ownership of one in-flight job. Publish the measurement with
/// [`LeaderGuard::publish`]; dropping the guard without publishing fails
/// every follower cleanly (this is what a panicking leader does on
/// unwind).
pub(crate) struct LeaderGuard<'t> {
    table: &'t InflightTable,
    fingerprint: Fingerprint,
    slot: Arc<Slot>,
    published: bool,
}

impl LeaderGuard<'_> {
    /// Publishes the measurement: inserts it into `memo`, wakes every
    /// follower with the value, and retires the in-flight entry. Memo
    /// insertion happens first, so a claimant that finds neither a memo
    /// entry nor an in-flight slot knows the job truly never ran.
    pub(crate) fn publish(
        mut self,
        measurement: &Measurement,
        memo: &Mutex<HashMap<Fingerprint, Measurement>>,
    ) {
        lock(memo).insert(self.fingerprint.clone(), measurement.clone());
        *lock(&self.slot.state) = SlotState::Done(Box::new(measurement.clone()));
        self.slot.changed.notify_all();
        self.published = true;
        lock(&self.table.slots).remove(&self.fingerprint);
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        {
            let mut state = lock(&self.slot.state);
            *state = SlotState::Failed(
                "the leading campaign abandoned this job before publishing \
                 (panic or terminal error); nothing was memoized"
                    .to_string(),
            );
        }
        self.slot.changed.notify_all();
        lock(&self.table.slots).remove(&self.fingerprint);
    }
}

/// A follower's handle on a job some other campaign is simulating.
pub(crate) struct FollowerTicket {
    slot: Arc<Slot>,
    waiting: Arc<AtomicUsize>,
}

impl FollowerTicket {
    /// Blocks until the leader publishes (`Ok`) or abandons (`Err`).
    /// Guaranteed to return: an unwinding leader's [`LeaderGuard`] flips
    /// the slot to failed from its `Drop`.
    pub(crate) fn wait(self) -> Result<Measurement, String> {
        self.waiting.fetch_add(1, Ordering::SeqCst);
        let result = {
            let mut state = lock(&self.slot.state);
            loop {
                match &*state {
                    SlotState::Done(measurement) => break Ok((**measurement).clone()),
                    SlotState::Failed(error) => break Err(error.clone()),
                    SlotState::Running => {
                        state = self
                            .slot
                            .changed
                            .wait(state)
                            .unwrap_or_else(|poisoned| poisoned.into_inner());
                    }
                }
            }
        };
        self.waiting.fetch_sub(1, Ordering::SeqCst);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use horizon_core::campaign::Campaign;
    use horizon_uarch::{Counters, MachineConfig, PowerReport};
    use std::time::Duration;

    fn fingerprint() -> Fingerprint {
        let campaign = Campaign {
            instructions: 1_000,
            warmup: 100,
            seed: 7,
        };
        Fingerprint::of_job(
            &campaign,
            horizon_workloads::cpu2017::speed_int()[0].profile(),
            &MachineConfig::skylake_i7_6700(),
        )
    }

    fn measurement(instructions: u64) -> Measurement {
        Measurement {
            counters: Counters {
                instructions,
                ..Counters::default()
            },
            power: PowerReport {
                core_watts: 1.0,
                llc_watts: 0.5,
                dram_watts: 0.25,
            },
        }
    }

    #[test]
    fn followers_receive_the_published_measurement() {
        let table = Arc::new(InflightTable::default());
        let memo = Arc::new(Mutex::new(HashMap::new()));
        let fp = fingerprint();
        let Claim::Leader(leader) = table.claim(&fp) else {
            panic!("first claim must lead");
        };
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let Claim::Follower(ticket) = table.claim(&fp) else {
                    panic!("later claims must follow");
                };
                let table = Arc::clone(&table);
                std::thread::spawn(move || {
                    let got = ticket.wait();
                    assert_eq!(table.waiting(), table.waiting()); // waiting() is callable concurrently
                    got
                })
            })
            .collect();
        // Let the followers actually park before publishing.
        for _ in 0..200 {
            if table.waiting() == 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        leader.publish(&measurement(42), &memo);
        for handle in waiters {
            let got = handle.join().expect("waiter thread");
            assert_eq!(got.expect("published result").counters.instructions, 42);
        }
        assert_eq!(
            memo.lock().unwrap().len(),
            1,
            "publish inserts into the memo"
        );
        assert_eq!(table.len(), 0, "published entries retire");
        assert_eq!(table.waiting(), 0, "waiter accounting drains");
        assert!(
            matches!(table.claim(&fp), Claim::Leader(_)),
            "a retired fingerprint can be claimed again"
        );
    }

    #[test]
    fn dropped_leader_fails_every_waiter_without_memoizing() {
        let table = Arc::new(InflightTable::default());
        let memo: Arc<Mutex<HashMap<Fingerprint, Measurement>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let fp = fingerprint();
        let Claim::Leader(leader) = table.claim(&fp) else {
            panic!("first claim must lead");
        };
        let waiters: Vec<_> = (0..2)
            .map(|_| {
                let Claim::Follower(ticket) = table.claim(&fp) else {
                    panic!("later claims must follow");
                };
                std::thread::spawn(move || ticket.wait())
            })
            .collect();
        for _ in 0..200 {
            if table.waiting() == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(leader); // the leader unwinds without publishing
        for handle in waiters {
            let got = handle.join().expect("waiter thread");
            let error = got.expect_err("abandoned job must fail waiters");
            assert!(error.contains("abandoned"), "{error}");
        }
        assert!(memo.lock().unwrap().is_empty(), "no partial memo entry");
        assert_eq!(table.len(), 0, "failed entries retire");
        assert!(
            matches!(table.claim(&fp), Claim::Leader(_)),
            "a failed fingerprint can be retried by a new leader"
        );
    }

    #[test]
    fn failed_slots_answer_late_followers_immediately() {
        let table = InflightTable::default();
        let fp = fingerprint();
        let Claim::Leader(leader) = table.claim(&fp) else {
            panic!("first claim must lead");
        };
        let Claim::Follower(ticket) = table.claim(&fp) else {
            panic!("second claim must follow");
        };
        drop(leader);
        // The waiter arrives after the failure and must not hang.
        assert!(ticket.wait().is_err());
    }
}
