//! Shard routing: the one formula that places record ids and token
//! ledger keys on shards, shared by the admission engine, the storage
//! engine's segment logs, the proxy and the replica topology.

/// Map a 32-byte key to one of `n` shards using its first 8 bytes as a
/// little-endian word. Keys here are hash outputs (record ids, token
/// ledger keys), so this is uniform. Shared by the store and the spend
/// ledger so both keyspaces spread across all shards, not just the first
/// 256 buckets.
pub fn shard_index(bytes: &[u8; 32], n: usize) -> usize {
    let b = bytes;
    (u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]) as usize) % n.max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    proptest::proptest! {
        /// The shard map must stay in bounds and be a stable pure
        /// function — the parallel partitioning depends on both.
        #[test]
        fn shard_index_in_bounds_and_stable(
            bytes in proptest::collection::vec(0u8..=255, 32..33),
            n in 1usize..64,
        ) {
            let mut key = [0u8; 32];
            key.copy_from_slice(&bytes);
            let s = shard_index(&key, n);
            proptest::prop_assert!(s < n);
            proptest::prop_assert_eq!(s, shard_index(&key, n));
        }

        /// n = 0 is clamped rather than panicking.
        #[test]
        fn shard_index_survives_zero_shards(b0 in 0u8..=255) {
            let mut key = [0u8; 32];
            key[0] = b0;
            proptest::prop_assert_eq!(shard_index(&key, 0), 0);
        }
    }
}
