//! Ingest results: why uploads are rejected, the per-reason counters,
//! and the admitted state as a plain value.
//!
//! Every upload must present a valid, unspent blind token (§4.2) and a
//! well-formed record; entity re-binding attempts are rejected by the
//! store. [`crate::ShardedIngest`] enforces that rule and counts every
//! rejection by reason so the experiments can report exactly what the
//! defences caught. [`IngestService`] is what admission leaves behind —
//! a store and its counters — as recovered from a log or handed from the
//! pipeline's ingest stage to analytics.

use crate::store::HistoryStore;
use serde::{Deserialize, Serialize};

/// Why an upload was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// Token signature invalid (forged).
    BadToken,
    /// Token already spent.
    DoubleSpend,
    /// Interaction malformed or out of order for its history.
    BadRecord,
    /// Record id already bound to a different entity.
    EntityMismatch,
}

/// Ingest counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Uploads accepted into the store.
    pub accepted: u64,
    /// Forged tokens.
    pub bad_token: u64,
    /// Double-spent tokens.
    pub double_spend: u64,
    /// Malformed or out-of-order records.
    pub bad_record: u64,
    /// Entity re-binding attempts.
    pub entity_mismatch: u64,
}

impl IngestStats {
    /// Total rejected.
    pub fn rejected(&self) -> u64 {
        self.bad_token + self.double_spend + self.bad_record + self.entity_mismatch
    }
}

/// Admitted state: the history store and the counters of the admission
/// run that built it. It admits nothing itself.
pub struct IngestService {
    store: HistoryStore,
    stats: IngestStats,
}

impl Default for IngestService {
    fn default() -> Self {
        Self::new()
    }
}

impl IngestService {
    /// An empty store with zeroed counters.
    pub fn new() -> Self {
        IngestService { store: HistoryStore::new(), stats: IngestStats::default() }
    }

    /// Assemble from an already-populated store and its counters — how
    /// recovery and [`crate::ShardedIngest::into_merged`] hand back the
    /// result of an admission run.
    pub fn from_parts(store: HistoryStore, stats: IngestStats) -> Self {
        IngestService { store, stats }
    }

    /// Counters so far.
    pub fn stats(&self) -> IngestStats {
        self.stats
    }

    /// Break the service into its store and counters — the shard
    /// redistribution path ([`crate::ShardedIngest::from_service`]).
    pub fn into_parts(self) -> (HistoryStore, IngestStats) {
        (self.store, self.stats)
    }

    /// The underlying store (server-internal analytics).
    pub fn store(&self) -> &HistoryStore {
        &self.store
    }

    /// Mutable store access (fraud filter discards).
    pub fn store_mut(&mut self) -> &mut HistoryStore {
        &mut self.store
    }
}

#[cfg(test)]
mod tests {
    //! Each rejection reason lands in its own counter, and the admitted
    //! state survives the hand-off from the engine to this value.
    use super::*;
    use crate::{IngestOutcome, ShardedIngest};
    use orsp_client::UploadRequest;
    use orsp_crypto::{BigUint, RsaPublicKey, Token, TokenMint, TokenWallet};
    use orsp_types::{
        DeviceId, EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A mint key and `n` fresh tokens for it.
    fn tokens(n: usize) -> (RsaPublicKey, Vec<Token>) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut mint = TokenMint::new(&mut rng, 256, 1_000, SimDuration::DAY);
        let mut wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
        let tokens = (0..n)
            .map(|_| {
                wallet.request_token(&mut rng, &mut mint, Timestamp::EPOCH).unwrap();
                wallet.take_token().unwrap()
            })
            .collect();
        (mint.public_key().clone(), tokens)
    }

    fn upload(token: Token, record: u8, entity: u64, t: i64) -> UploadRequest {
        UploadRequest {
            record_id: RecordId::from_bytes([record; 32]),
            entity: EntityId::new(entity),
            interaction: Interaction::solo(
                InteractionKind::Visit,
                Timestamp::from_seconds(t),
                SimDuration::minutes(30),
                100.0,
            ),
            token,
            release_at: Timestamp::from_seconds(t),
        }
    }

    /// Admit `uploads` in order; return each verdict and the admitted state.
    fn admit(
        key: &RsaPublicKey,
        uploads: &[UploadRequest],
    ) -> (Vec<Option<RejectReason>>, IngestService) {
        let engine = ShardedIngest::new(4);
        let verdicts = uploads
            .iter()
            .map(|u| match engine.ingest(u, key) {
                IngestOutcome::Rejected(reason) => Some(reason),
                _ => None,
            })
            .collect();
        let (store, stats) = engine.into_merged();
        (verdicts, IngestService::from_parts(store, stats))
    }

    #[test]
    fn valid_upload_accepted() {
        let (key, t) = tokens(1);
        let (verdicts, svc) = admit(&key, &[upload(t[0].clone(), 1, 5, 0)]);
        assert_eq!(verdicts, vec![None]);
        assert_eq!(svc.stats().accepted, 1);
        assert_eq!(svc.store().len(), 1);
    }

    #[test]
    fn forged_token_rejected() {
        let (key, _) = tokens(0);
        let forged = Token { message: [9u8; 32], signature: BigUint::from_u64(42) };
        let (verdicts, svc) = admit(&key, &[upload(forged, 1, 5, 0)]);
        assert_eq!(verdicts, vec![Some(RejectReason::BadToken)]);
        assert_eq!(svc.stats().bad_token, 1);
        assert!(svc.store().is_empty());
    }

    #[test]
    fn double_spend_rejected() {
        let (key, t) = tokens(1);
        let (verdicts, svc) =
            admit(&key, &[upload(t[0].clone(), 1, 5, 0), upload(t[0].clone(), 2, 5, 100)]);
        assert_eq!(verdicts, vec![None, Some(RejectReason::DoubleSpend)]);
        assert_eq!(svc.stats().double_spend, 1);
    }

    #[test]
    fn entity_mismatch_rejected() {
        let (key, t) = tokens(2);
        let (verdicts, svc) =
            admit(&key, &[upload(t[0].clone(), 1, 5, 0), upload(t[1].clone(), 1, 6, 100)]);
        assert_eq!(verdicts, vec![None, Some(RejectReason::EntityMismatch)]);
        assert_eq!(svc.stats().entity_mismatch, 1);
    }

    #[test]
    fn out_of_order_record_rejected() {
        let (key, t) = tokens(2);
        let (verdicts, svc) =
            admit(&key, &[upload(t[0].clone(), 1, 5, 1_000), upload(t[1].clone(), 1, 5, 10)]);
        assert_eq!(verdicts, vec![None, Some(RejectReason::BadRecord)]);
        assert_eq!(svc.stats().bad_record, 1);
        assert_eq!(svc.stats().rejected(), 1);
    }
}
