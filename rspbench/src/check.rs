//! Correctness checks that fail the run: durability of every acked
//! upload and spend, and bit-identical cluster answers against a
//! single-node oracle.

use crate::stack::{storage_options, Ledger};
use orsp_core::{service_for_world_sharded, PipelineConfig};
use orsp_net::{Request, Response, RspService};
use orsp_server::{HistoryStore, IngestService, IngestStats};
use orsp_storage::{Dir, StorageEngine};
use orsp_types::RecordId;
use orsp_world::World;
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Compare what recovery rebuilt with what was acked. `unknown` holds
/// uploads whose outcome the client never learned (transport failure):
/// they may be present or absent, but nothing else may appear.
pub fn compare(
    store: &HistoryStore,
    spent: &HashSet<[u8; 32]>,
    expected: &Ledger,
    unknown: &Ledger,
) -> Result<(), String> {
    let mut seen = 0usize;
    for (id, stored) in store.iter() {
        match expected.histories.get(id) {
            Some(want) => {
                seen += 1;
                if stored.entity != want.entity || stored.history.records() != want.interactions {
                    return Err(format!(
                        "record {} recovered as {:?}, acked as {:?}",
                        id.short_hex(),
                        stored.history.records(),
                        want.interactions
                    ));
                }
            }
            None if unknown.histories.contains_key(id) => {}
            None => {
                return Err(format!(
                    "record {} recovered but never acked",
                    id.short_hex()
                ))
            }
        }
    }
    if seen != expected.histories.len() {
        let missing: Vec<&RecordId> = expected
            .histories
            .keys()
            .filter(|id| store.get(id).is_none())
            .collect();
        return Err(format!(
            "{} acked record(s) not recovered, e.g. {}",
            missing.len(),
            missing
                .first()
                .map_or_else(String::new, |id| id.short_hex())
        ));
    }
    if let Some(key) = expected.spends.iter().find(|k| !spent.contains(*k)) {
        return Err(format!(
            "acked spend {:02x}{:02x}.. not recovered",
            key[0], key[1]
        ));
    }
    if let Some(key) = spent
        .iter()
        .find(|k| !expected.spends.contains(*k) && !unknown.spends.contains(*k))
    {
        return Err(format!(
            "spend {:02x}{:02x}.. recovered but never acked",
            key[0], key[1]
        ));
    }
    Ok(())
}

/// Reopen a data directory with `StorageEngine::open` and compare.
pub fn check_durable(dir: Arc<dyn Dir>, expected: &Ledger, unknown: &Ledger) -> Result<(), String> {
    let (_engine, report) =
        StorageEngine::open(dir, storage_options()).map_err(|e| format!("reopen failed: {e}"))?;
    compare(&report.store, &report.spent_tokens, expected, unknown)
}

/// The single-node oracle: one in-memory RSP over the same world holding
/// exactly `ledgers`' histories, published once.
pub fn oracle(world: &World, ledgers: &[&Ledger]) -> RspService {
    let mut store = HistoryStore::new();
    for ledger in ledgers {
        for (id, want) in &ledger.histories {
            for inter in &want.interactions {
                store
                    .append(*id, want.entity, *inter)
                    .expect("oracle history");
            }
        }
    }
    let service = service_for_world_sharded(
        world,
        &PipelineConfig::default(),
        IngestService::from_parts(store, IngestStats::default()),
        None,
        storage_options().shard_count as usize,
    );
    service.publish_aggregates();
    service
}

/// Every (zipcode, category) search and every entity fetch, answered by
/// `serve` and by the oracle: the encoded responses must be identical.
pub fn compare_with_oracle(
    oracle: &RspService,
    probes: &[Request],
    serve: &mut dyn FnMut(&Request) -> Result<Response, String>,
) -> Result<usize, String> {
    for request in probes {
        let want = oracle.handle(request.clone());
        let got = serve(request)?;
        if got.encode() != want.encode() {
            return Err(format!(
                "cluster answered {request:?} differently from the single-node oracle: \
                 got {got:?}, want {want:?}"
            ));
        }
    }
    Ok(probes.len())
}

/// Distinct entities with at least one history.
pub fn entities_with_histories(ledgers: &[&Ledger]) -> usize {
    ledgers
        .iter()
        .flat_map(|l| l.histories.values().map(|h| h.entity))
        .collect::<BTreeSet<_>>()
        .len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use orsp_server::{WalBatchItem, WalEntry};
    use orsp_storage::SimDir;
    use orsp_types::rng::rng_for;
    use orsp_types::EntityId;
    use rand::Rng;

    fn ledger_and_dir(n: usize) -> (Ledger, Arc<dyn Dir>) {
        let mut rng = rng_for(5, "durability");
        let dir: Arc<dyn Dir> = Arc::new(SimDir::new());
        let (engine, _) = StorageEngine::open(Arc::clone(&dir), storage_options()).unwrap();
        let mut ledger = Ledger::default();
        for i in 0..n {
            let id = crate::stack::record_id(&mut rng);
            let inter = crate::stack::interaction(&mut rng, i as i64);
            let mut spend = [0u8; 32];
            rng.fill(&mut spend);
            let entity = EntityId::new(1 + i as u64 % 7);
            ledger.add(id, entity, inter, spend);
            engine
                .append_upload_batch(&[WalBatchItem {
                    spend: Some(spend),
                    entry: WalEntry {
                        record_id: id,
                        entity,
                        interaction: inter,
                    },
                }])
                .unwrap();
        }
        (ledger, dir)
    }

    #[test]
    fn every_acked_record_recovers() {
        let (ledger, dir) = ledger_and_dir(50);
        check_durable(dir, &ledger, &Ledger::default()).expect("all acked records recovered");
    }

    #[test]
    fn a_withheld_acked_record_fails_the_check() {
        let (mut ledger, dir) = ledger_and_dir(50);
        // One more acked upload that never reached the log.
        let mut rng = rng_for(6, "withheld");
        let id = crate::stack::record_id(&mut rng);
        ledger.add(
            id,
            EntityId::new(1),
            crate::stack::interaction(&mut rng, 3),
            [9u8; 32],
        );
        let err = check_durable(dir, &ledger, &Ledger::default()).unwrap_err();
        assert!(err.contains("not recovered"), "{err}");
    }

    #[test]
    fn a_withheld_spend_or_an_unacked_record_fails_the_check() {
        let (mut ledger, dir) = ledger_and_dir(20);
        let key = *ledger.spends.iter().next().unwrap();
        ledger.spends.remove(&key);
        let err = check_durable(Arc::clone(&dir), &ledger, &Ledger::default()).unwrap_err();
        assert!(err.contains("never acked"), "{err}");
        let (mut ledger, dir) = ledger_and_dir(20);
        let id = *ledger.histories.keys().next().unwrap();
        ledger.histories.remove(&id);
        let err = check_durable(dir, &ledger, &Ledger::default()).unwrap_err();
        assert!(err.contains("never acked"), "{err}");
    }
}
