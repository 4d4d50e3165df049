//! The replica half of the correctness gate.
//!
//! Every replica's application records a fingerprint of each operation it
//! executes and of its result, under the operation's executed count (its
//! position in the agreed order), and records every state digest the
//! protocol asks it for (at checkpoints, on the replicas that announce
//! them) or that it reaches by restoring a snapshot. The gate then requires
//! every two replicas to agree wherever they recorded the same point.
//!
//! A replica restored from its store or from another replica's snapshot is
//! checked on every operation it executes afterwards, and the state it
//! restored is checked against a reference: the preloaded store with the
//! agreed operations up to that count executed in order, one after another.

use seemore_app::{KvStore, StateMachine};
use seemore_crypto::Digest;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fingerprints one executed operation and its result.
/// `DefaultHasher::new` is fixed-keyed, so every replica computes the same.
pub fn fingerprint(op: &[u8], result: &[u8]) -> u64 {
    let mut hasher = DefaultHasher::new();
    op.hash(&mut hasher);
    result.hash(&mut hasher);
    hasher.finish()
}

/// Shared by the applications of every replica of one run.
#[derive(Debug)]
pub struct AppLedger {
    executed: Vec<AtomicU64>,
    /// Per replica, `(executed count, fingerprint)` of every operation it
    /// executed; one lock per replica, so replica threads do not contend.
    operations: Vec<Mutex<Vec<(u64, u64)>>>,
    /// `(replica, executed count, state digest)`.
    digests: Mutex<Vec<(u32, u64, Digest)>>,
    /// The agreed order: each executed count's operation, as the first
    /// replica to execute it saw it.
    agreed: Mutex<BTreeMap<u64, Vec<u8>>>,
    /// `(replica, executed count, state digest)` of every restore.
    restores: Mutex<Vec<(u32, u64, Digest)>>,
}

/// What the gate compared.
#[derive(Debug, Clone, Default)]
pub struct Agreement {
    /// Operations executed by two or more replicas.
    pub operations_shared: usize,
    /// Per replica, how many of the operations it executed another replica
    /// executed too.
    pub compared_per_replica: Vec<usize>,
    /// State digests recorded by two or more replicas.
    pub digests_shared: usize,
    /// Restores whose state matched the reference's.
    pub restores_checked: usize,
}

impl AppLedger {
    pub fn new(replicas: usize) -> Arc<Self> {
        Arc::new(AppLedger {
            executed: (0..replicas).map(|_| AtomicU64::new(0)).collect(),
            operations: (0..replicas).map(|_| Mutex::new(Vec::new())).collect(),
            digests: Mutex::new(Vec::new()),
            agreed: Mutex::new(BTreeMap::new()),
            restores: Mutex::new(Vec::new()),
        })
    }

    /// Notes that `replica` has executed `op`, its `count`-th operation,
    /// with `result`.
    pub fn executed(&self, replica: u32, count: u64, op: &[u8], result: &[u8]) {
        self.progress(replica, count);
        self.operations[replica as usize]
            .lock()
            .expect("ledger lock")
            .push((count, fingerprint(op, result)));
        self.agreed
            .lock()
            .expect("ledger lock")
            .entry(count)
            .or_insert_with(|| op.to_vec());
    }

    /// Notes that `replica` has restored a snapshot of `count` operations
    /// whose state digest is `digest`.
    pub fn restored(&self, replica: u32, count: u64, digest: Digest) {
        self.progress(replica, count);
        self.digest(replica, count, digest);
        self.restores
            .lock()
            .expect("ledger lock")
            .push((replica, count, digest));
    }

    fn progress(&self, replica: u32, count: u64) {
        // A progress statistic read by the crash schedule; it publishes no
        // other data, so `Relaxed` suffices.
        self.executed[replica as usize].store(count, Ordering::Relaxed);
    }

    pub fn digest(&self, replica: u32, count: u64, digest: Digest) {
        self.digests
            .lock()
            .expect("ledger lock")
            .push((replica, count, digest));
    }

    pub fn executed_count(&self, replica: u32) -> u64 {
        self.executed[replica as usize].load(Ordering::Relaxed)
    }

    /// The highest executed count among the other replicas.
    pub fn head_excluding(&self, replica: u32) -> u64 {
        self.executed
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != replica as usize)
            .map(|(_, c)| c.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
    }

    /// Checks that replicas agree at every point two of them recorded, and
    /// that every restored state is the state `preloaded` reaches by
    /// executing the agreed operations up to the restored count.
    pub fn check(&self, preloaded: &KvStore) -> Result<Agreement, String> {
        let mut agreement = Agreement {
            compared_per_replica: vec![0; self.operations.len()],
            ..Agreement::default()
        };

        let mut digests: BTreeMap<u64, Vec<(u32, Digest)>> = BTreeMap::new();
        for (replica, count, digest) in self.digests.lock().expect("ledger lock").iter() {
            digests.entry(*count).or_default().push((*replica, *digest));
        }
        for (count, seen) in &digests {
            let (first_replica, first) = seen[0];
            if let Some((replica, other)) = seen.iter().find(|(_, d)| *d != first) {
                return Err(format!(
                    "state digests differ after {count} operations: replica {first_replica} has {}, replica {replica} has {}",
                    first.short_hex(),
                    other.short_hex()
                ));
            }
            if seen.iter().any(|(r, _)| *r != first_replica) {
                agreement.digests_shared += 1;
            }
        }

        let mut operations: BTreeMap<u64, Vec<(u32, u64)>> = BTreeMap::new();
        for (replica, log) in self.operations.iter().enumerate() {
            for (count, fingerprint) in log.lock().expect("ledger lock").iter() {
                operations
                    .entry(*count)
                    .or_default()
                    .push((replica as u32, *fingerprint));
            }
        }
        for (count, seen) in &operations {
            let (first_replica, first) = seen[0];
            if let Some((replica, other)) = seen.iter().find(|(_, f)| *f != first) {
                return Err(format!(
                    "executed histories differ at operation {count}: replica {first_replica} has {first:016x}, replica {replica} has {other:016x}"
                ));
            }
            if seen.iter().any(|(r, _)| *r != first_replica) {
                agreement.operations_shared += 1;
                for (replica, _) in seen {
                    agreement.compared_per_replica[*replica as usize] += 1;
                }
            }
        }

        let mut restores = self.restores.lock().expect("ledger lock").clone();
        restores.sort_by_key(|(_, count, _)| *count);
        let agreed = self.agreed.lock().expect("ledger lock");
        let mut reference = preloaded.clone();
        for (replica, count, digest) in restores {
            while reference.executed_count() < count {
                let next = reference.executed_count() + 1;
                let op = agreed.get(&next).ok_or_else(|| {
                    format!("replica {replica} restored {count} operations, but no replica executed operation {next}")
                })?;
                reference.execute(op);
            }
            let expected = reference.state_digest();
            if digest != expected {
                return Err(format!(
                    "replica {replica} restored a state after {count} operations with digest {}, but executing the agreed operations gives {}",
                    digest.short_hex(),
                    expected.short_hex()
                ));
            }
            agreement.restores_checked += 1;
        }
        Ok(agreement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_app::KvOp;

    fn put(count: u64) -> Vec<u8> {
        KvOp::Put {
            key: vec![(count % 7) as u8],
            value: count.to_le_bytes().to_vec(),
        }
        .encode()
    }

    /// Replica `replica` executes operations `from..=to` on `store`; the
    /// operation numbered `bad` gets a wrong result.
    fn execute(
        ledger: &AppLedger,
        store: &mut KvStore,
        replica: u32,
        from: u64,
        to: u64,
        bad: Option<u64>,
    ) {
        for count in from..=to {
            let op = put(count);
            let result = store.execute(&op);
            let result = if bad == Some(count) {
                b"bad".to_vec()
            } else {
                result
            };
            ledger.executed(replica, count, &op, &result);
        }
    }

    #[test]
    fn agreeing_replicas_pass_and_a_divergent_one_fails() {
        let ledger = AppLedger::new(3);
        for (replica, bad) in [(0, None), (1, None), (2, Some(4))] {
            execute(&ledger, &mut KvStore::new(), replica, 1, 4, bad);
        }
        let err = ledger.check(&KvStore::new()).unwrap_err();
        assert!(err.contains("operation 4"), "{err}");

        let ledger = AppLedger::new(2);
        execute(&ledger, &mut KvStore::new(), 0, 1, 2, None);
        execute(&ledger, &mut KvStore::new(), 1, 1, 2, None);
        ledger.digest(0, 2, Digest::of_bytes(b"s"));
        ledger.digest(1, 2, Digest::of_bytes(b"s"));
        let ok = ledger.check(&KvStore::new()).unwrap();
        assert_eq!(ok.operations_shared, 2);
        assert_eq!(ok.compared_per_replica, vec![2, 2]);
        assert_eq!(ok.digests_shared, 1);
        ledger.digest(1, 2, Digest::of_bytes(b"t"));
        assert!(ledger.check(&KvStore::new()).is_err());
        assert_eq!(ledger.head_excluding(0), 2);
    }

    #[test]
    fn a_restored_replica_is_checked_from_its_next_operation() {
        for (restore_at, bad) in [(128, None), (128, Some(129)), (130, Some(256)), (130, None)] {
            let ledger = AppLedger::new(3);
            let mut head = KvStore::new();
            execute(&ledger, &mut head, 0, 1, 300, None);
            execute(&ledger, &mut KvStore::new(), 1, 1, 300, None);
            // Replica 2 crashed after 100 operations and restores a
            // snapshot of `restore_at` (at a checkpoint or between two).
            let mut source = KvStore::new();
            execute(&ledger, &mut source, 1, 1, restore_at, None);
            let mut restored = KvStore::new();
            execute(&ledger, &mut KvStore::new(), 2, 1, 100, None);
            restored.restore(&source.snapshot());
            ledger.restored(2, restore_at, restored.state_digest());
            assert_eq!(ledger.executed_count(2), restore_at);
            execute(&ledger, &mut restored, 2, restore_at + 1, 300, bad);
            match (ledger.check(&KvStore::new()), bad) {
                (Err(err), Some(bad)) => {
                    assert!(err.contains(&format!("operation {bad}")), "{err}")
                }
                (Ok(ok), None) => {
                    assert_eq!(ok.operations_shared, 300);
                    assert_eq!(ok.compared_per_replica[2] as u64, 100 + 300 - restore_at);
                    assert_eq!(ok.restores_checked, 1);
                }
                (outcome, bad) => panic!("restore at {restore_at}, bad {bad:?}: {outcome:?}"),
            }
        }
    }

    #[test]
    fn a_restored_state_that_is_not_the_agreed_one_fails() {
        let ledger = AppLedger::new(2);
        execute(&ledger, &mut KvStore::new(), 0, 1, 10, None);
        // A snapshot that skipped operation 5: nobody else records a
        // digest at 10, so only the reference catches it.
        let mut wrong = KvStore::new();
        for count in (1..=10).filter(|c| *c != 5) {
            wrong.execute(&put(count));
        }
        wrong.execute(&put(9));
        ledger.restored(1, 10, wrong.state_digest());
        let err = ledger.check(&KvStore::new()).unwrap_err();
        assert!(err.contains("restored a state after 10"), "{err}");
    }
}
