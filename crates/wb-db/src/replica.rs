//! Primary → replica replication with measurable lag.
//!
//! WebGPU 2.0 (§VI-A) replicates the database "across Amazon
//! availability zones — offering resiliency against faults and better
//! response times". The simulated version ships WAL frames from a
//! primary table to replicas on demand; a replica applied up to
//! sequence `s` lags by `primary.next_seq() - s` operations, which the
//! dashboard and tests can observe, and a replica can be promoted on
//! primary failure.

use crate::codec::{CodecError, Decoder, Encode};
use crate::table::Table;
use crate::wal::{Wal, WalRecord};
use wb_obs::sync::Mutex;

/// The logged operations for a replicated table.
#[derive(Debug, Clone, PartialEq)]
pub enum TableOp<T> {
    /// Insert with a pre-assigned id (primary chose it).
    Insert(u64, T),
    /// Full-row update.
    Update(u64, T),
    /// Row deletion.
    Delete(u64),
}

/// The replication frame: variant index, row id, then the row for the
/// two variants that carry one.
impl<T: Encode> Encode for TableOp<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let (tag, id, row) = match self {
            TableOp::Insert(id, row) => (0u32, id, Some(row)),
            TableOp::Update(id, row) => (1, id, Some(row)),
            TableOp::Delete(id) => (2, id, None),
        };
        tag.encode(out);
        id.encode(out);
        if let Some(row) = row {
            row.encode(out);
        }
    }
    fn decode(input: &mut Decoder<'_>) -> Result<Self, CodecError> {
        let (tag, id) = (input.variant()?, u64::decode(input)?);
        match tag {
            0 => Ok(TableOp::Insert(id, T::decode(input)?)),
            1 => Ok(TableOp::Update(id, T::decode(input)?)),
            2 => Ok(TableOp::Delete(id)),
            other => Err(CodecError(format!("invalid TableOp variant {other}"))),
        }
    }
}

/// A table that logs every mutation and can feed replicas.
pub struct ReplicatedTable<T> {
    table: Table<T>,
    wal: Mutex<Wal>,
}

/// A read-only replica applying shipped WAL frames.
pub struct Replica<T> {
    table: Table<T>,
    applied_seq: u64,
}

impl<T: Encode + Clone> Default for ReplicatedTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Encode + Clone> ReplicatedTable<T> {
    /// Empty primary.
    pub fn new() -> Self {
        ReplicatedTable {
            table: Table::new(),
            wal: Mutex::new(Wal::new()),
        }
    }

    /// The underlying table (reads go straight through).
    pub fn table(&self) -> &Table<T> {
        &self.table
    }

    /// Insert, logging the operation.
    pub fn insert(&self, value: &T) -> Result<u64, CodecError> {
        let id = self
            .table
            .insert(value)
            .map_err(|e| CodecError(e.to_string()))?;
        self.wal
            .lock()
            .append(&TableOp::Insert(id, value.clone()))?;
        Ok(id)
    }

    /// Update, logging the operation.
    pub fn update(&self, id: u64, value: &T) -> Result<(), CodecError> {
        self.table
            .update(id, value)
            .map_err(|e| CodecError(e.to_string()))?;
        self.wal
            .lock()
            .append(&TableOp::Update(id, value.clone()))?;
        Ok(())
    }

    /// Delete, logging the operation.
    pub fn delete(&self, id: u64) -> Result<(), CodecError> {
        self.table
            .delete(id)
            .map_err(|e| CodecError(e.to_string()))?;
        self.wal.lock().append(&TableOp::<T>::Delete(id))?;
        Ok(())
    }

    /// Highest sequence number assigned so far.
    pub fn head_seq(&self) -> u64 {
        self.wal.lock().next_seq()
    }

    /// Ship every logged op at or after `from_seq` (replica pull).
    pub fn ship(&self, from_seq: u64) -> Result<Vec<WalRecord<TableOp<T>>>, CodecError> {
        self.wal.lock().replay(from_seq)
    }
}

impl<T: Encode + Clone> Default for Replica<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Encode + Clone> Replica<T> {
    /// Fresh, empty replica.
    pub fn new() -> Self {
        Replica {
            table: Table::new(),
            applied_seq: 0,
        }
    }

    /// Seed a replica from a primary snapshot: copies every row with
    /// its exact id and fast-forwards past the primary's current WAL
    /// head. This is how replicas of a *promoted* primary start, since
    /// a promoted node's WAL does not reach back to genesis.
    pub fn bootstrap(primary: &ReplicatedTable<T>) -> Result<Self, CodecError> {
        let table = Table::new();
        for (id, row) in primary.table().scan() {
            table
                .insert_with_id(id, &row)
                .map_err(|e| CodecError(e.to_string()))?;
        }
        Ok(Replica {
            table,
            applied_seq: primary.head_seq(),
        })
    }

    /// Read-only view.
    pub fn table(&self) -> &Table<T> {
        &self.table
    }

    /// Operations applied so far.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq
    }

    /// How many operations behind a primary this replica is.
    pub fn lag(&self, primary: &ReplicatedTable<T>) -> u64 {
        primary.head_seq().saturating_sub(self.applied_seq)
    }

    /// Pull and apply everything new from the primary.
    pub fn catch_up(&mut self, primary: &ReplicatedTable<T>) -> Result<usize, CodecError> {
        let recs = primary.ship(self.applied_seq)?;
        let n = recs.len();
        for rec in recs {
            self.apply(rec)?;
        }
        Ok(n)
    }

    /// Apply at most `limit` pending operations (to simulate lag).
    pub fn catch_up_limited(
        &mut self,
        primary: &ReplicatedTable<T>,
        limit: usize,
    ) -> Result<usize, CodecError> {
        let recs = primary.ship(self.applied_seq)?;
        let n = recs.len().min(limit);
        for rec in recs.into_iter().take(n) {
            self.apply(rec)?;
        }
        Ok(n)
    }

    fn apply(&mut self, rec: WalRecord<TableOp<T>>) -> Result<(), CodecError> {
        if rec.seq < self.applied_seq {
            return Ok(()); // duplicate delivery is idempotent
        }
        match rec.op {
            TableOp::Insert(id, v) => {
                // Replicas must reproduce the primary's ids exactly;
                // Table assigns sequential ids, so inserts arrive in
                // id order and line up. Verify to catch divergence.
                let got = self
                    .table
                    .insert(&v)
                    .map_err(|e| CodecError(e.to_string()))?;
                if got != id {
                    return Err(CodecError(format!(
                        "replica id divergence: primary {id}, replica {got}"
                    )));
                }
            }
            TableOp::Update(id, v) => {
                self.table
                    .update(id, &v)
                    .map_err(|e| CodecError(e.to_string()))?;
            }
            TableOp::Delete(id) => {
                self.table
                    .delete(id)
                    .map_err(|e| CodecError(e.to_string()))?;
            }
        }
        self.applied_seq = rec.seq + 1;
        Ok(())
    }

    /// Promote this replica to a primary (failover).
    pub fn promote(self) -> ReplicatedTable<T> {
        ReplicatedTable {
            table: self.table,
            wal: Mutex::new(Wal::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_catches_up() {
        let primary = ReplicatedTable::new();
        let a = primary.insert(&"alice".to_string()).unwrap();
        let b = primary.insert(&"bob".to_string()).unwrap();
        primary.update(a, &"alice2".to_string()).unwrap();
        primary.delete(b).unwrap();

        let mut replica = Replica::new();
        assert_eq!(replica.lag(&primary), 4);
        let applied = replica.catch_up(&primary).unwrap();
        assert_eq!(applied, 4);
        assert_eq!(replica.lag(&primary), 0);
        assert_eq!(replica.table().get(a).unwrap(), "alice2");
        assert!(replica.table().get(b).is_err());
    }

    #[test]
    fn limited_catch_up_models_lag() {
        let primary = ReplicatedTable::new();
        for i in 0..10 {
            primary.insert(&format!("u{i}")).unwrap();
        }
        let mut replica = Replica::new();
        replica.catch_up_limited(&primary, 4).unwrap();
        assert_eq!(replica.lag(&primary), 6);
        assert_eq!(replica.table().len(), 4);
        replica.catch_up(&primary).unwrap();
        assert_eq!(replica.table().len(), 10);
    }

    #[test]
    fn incremental_shipping_is_exact() {
        let primary = ReplicatedTable::new();
        primary.insert(&1u64).unwrap();
        let mut replica = Replica::new();
        replica.catch_up(&primary).unwrap();
        primary.insert(&2u64).unwrap();
        let applied = replica.catch_up(&primary).unwrap();
        assert_eq!(applied, 1, "only the new op ships");
    }

    #[test]
    fn promote_after_failover() {
        let primary = ReplicatedTable::new();
        let id = primary.insert(&"x".to_string()).unwrap();
        let mut replica = Replica::new();
        replica.catch_up(&primary).unwrap();
        drop(primary); // primary dies
        let new_primary = replica.promote();
        assert_eq!(new_primary.table().get(id).unwrap(), "x");
        // The promoted primary accepts writes; new replicas of a
        // promoted primary must bootstrap from a snapshot because its
        // WAL does not reach back to genesis.
        new_primary.insert(&"y".to_string()).unwrap();
        let mut r2 = Replica::bootstrap(&new_primary).unwrap();
        assert_eq!(r2.table().len(), 2);
        assert_eq!(r2.lag(&new_primary), 0);
        // And it streams subsequent writes normally.
        new_primary.insert(&"z".to_string()).unwrap();
        r2.catch_up(&new_primary).unwrap();
        assert_eq!(r2.table().len(), 3);
    }

    #[test]
    fn duplicate_delivery_is_idempotent() {
        let primary = ReplicatedTable::new();
        primary.insert(&"x".to_string()).unwrap();
        let mut replica = Replica::new();
        let recs = primary.ship(0).unwrap();
        for rec in recs.iter().cloned() {
            replica.apply(rec).unwrap();
        }
        // Redeliver the same frame; it must be skipped.
        replica.apply(recs[0].clone()).unwrap();
        assert_eq!(replica.table().len(), 1);
    }
}
