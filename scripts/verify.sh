#!/bin/sh
# Tier-1 verification: everything a reviewer needs to trust a change.
# Runs fully offline; mirrors what CI would run.
set -eu
cd "$(dirname "$0")/.."

echo "== cargo build --release (workspace, -D warnings) =="
RUSTFLAGS="-D warnings" cargo build --workspace --release

echo "== cargo test -q =="
cargo test -q --workspace

echo "== crypto suites optimised (Montgomery/CRT differential tests, pinned keygen, fault check) =="
cargo test -q --release -p orsp-crypto

echo "== E6 blind tokens (asserts 400/400 replays rejected, 0/200 forgeries accepted, exactly 5/100 granted under a 5/day limit) =="
cargo run -q --release -p orsp-bench --bin e6_tokens

echo "== benchmark package builds and passes its tests (rspbench/ is its own workspace, outside --workspace) =="
cargo test -q --release --offline --manifest-path rspbench/Cargo.toml

echo "== obs test suites (registry unit tests, N-thread hammer) =="
cargo test -q --release -p orsp-obs
cargo test -q --release -p orsp-obs --test concurrency

echo "== net test suites (codec proptests, frame reassembly, TCP integration, end-to-end digest) =="
cargo test -q --release -p orsp-net --test wire_proptests
cargo test -q --release -p orsp-net --test frame_reassembly
cargo test -q --release -p orsp-net --test tcp_roundtrip
cargo test -q --release -p orsp-core --test net_end_to_end

echo "== net integration again on the threaded transport (same contract, fallback code path) =="
ORSP_NET_TRANSPORT=threaded cargo test -q --release -p orsp-net --test tcp_roundtrip
ORSP_NET_TRANSPORT=threaded cargo test -q --release -p orsp-core --test net_end_to_end

echo "== service concurrency (domain locks: hammer, shard routing; debug build carries the lock-order assertion) =="
cargo test -q --release -p orsp-net --test service_hammer
ORSP_NET_TRANSPORT=threaded cargo test -q --release -p orsp-net --test service_hammer
cargo test -q -p orsp-net --test service_hammer
cargo test -q -p orsp-server lockorder

echo "== storage test suites (engine units, crash matrix, group-commit equivalence, served-crash recovery) =="
cargo test -q --release -p orsp-storage
cargo test -q --release -p orsp-storage --test crash_matrix
# The mid-group power-cut sweep also runs in a debug build: overflow and
# debug_assert checks cover the batch/boundary arithmetic release elides.
cargo test -q -p orsp-storage --test crash_matrix
cargo test -q --release -p orsp-storage --test group_commit
cargo test -q --release -p orsp-core --test storage_recovery

echo "== proxy test suites (merge rules, routing/failure semantics, 3-backend digest equality over TCP) =="
cargo test -q --release -p orsp-proxy
cargo test -q --release -p orsp-proxy --test proxy_end_to_end

echo "== trace causality (proxy + 2 backends over TCP: one connected span tree, proxy root to wal_fsync) =="
cargo test -q --release -p orsp-proxy --test trace_end_to_end

echo "== replica suites (topology/apply/catch-up units; SIGKILL-the-primary failover e2e; mid-catch-up power-cut matrix; shared server flags) =="
cargo test -q --release -p orsp-replica --lib
cargo test -q --release -p orsp-replica --test failover_e2e
cargo test -q --release -p orsp-replica --test catchup_crash
cargo test -q --release -p orsp-replica --test replicad_flags

echo "== reshard 2->4 round trip (digest-verified, source untouched) =="
cargo test -q --release -p orsp-storage --lib reshard

echo "== recorded proxy scaling result exists (>=1.5x routed speedup, or the single-core CPU-bound explanation with per-backend utilization) =="
# (regenerate with: cargo run --release -p orsp-bench --bin proxy_scaling)
test -f results/BENCH_proxy_scaling.json
grep -q '"scaling_gate_ok": true' results/BENCH_proxy_scaling.json

echo "== recorded storage throughput exists (regenerate: cargo run --release -p orsp-bench --bin storage_throughput) =="
test -f results/BENCH_storage_throughput.json
grep -q '"cold_replay_meets_100k_rps": true' results/BENCH_storage_throughput.json

echo "== recorded obs overhead stays under the 3% gate =="
# The full A/B takes ~20s of steady load; CI checks the recorded result
# (regenerate with: cargo run --release -p orsp-bench --bin obs_overhead).
test -f results/BENCH_obs_overhead.json
grep -q '"overhead_below_3pct": true' results/BENCH_obs_overhead.json

echo "== recorded trace overhead stays under the 3% gate at 1% sampling =="
# (regenerate with: cargo run --release -p orsp-bench --bin trace_overhead)
test -f results/BENCH_trace_overhead.json
grep -q '"one_pct_overhead_below_3pct": true' results/BENCH_trace_overhead.json

echo "== recorded idle-fleet result: reactor holds 5000 idle connections at workers=4 with zero sheds, within 10% of threaded closed-loop throughput =="
# The fleet phase + best-of-3 closed loop takes ~2 min; CI checks the
# recorded result (regenerate with: cargo run --release -p orsp-bench --bin idle_fleet).
test -f results/BENCH_idle_fleet.json
grep -q '"idle_fleet_gate_ok": true' results/BENCH_idle_fleet.json
grep -q '"throughput_within_10pct": true' results/BENCH_idle_fleet.json

echo "== recorded service-contention result exists with an overlapping upload stream =="
# (regenerate with: cargo run --release -p orsp-bench --bin service_contention)
test -f results/BENCH_service_contention.json
grep -q '"uploads_during_contended_phase": [1-9]' results/BENCH_service_contention.json

echo "== group-commit bench meets the 20x durable-ingest gate =="
# Re-measures on this machine: concurrent uploaders against fsync=always
# must reach >= 20x the seed's one-fsync-per-record rate (~93k rec/s)
# with at least 4 uploaders, one fsync per group.
cargo run --release -p orsp-bench --bin group_commit
grep -q '"meets_20x_gate": true' results/BENCH_group_commit.json

echo "== replication overhead bench: sync RF=2 under 2x single-copy (or the documented 1-core serial-fsync exception) =="
cargo run --release -p orsp-bench --bin replication_overhead
grep -q '"overhead_gate_ok": true' results/BENCH_replication_overhead.json

# Formatting is advisory: rustfmt may be absent in minimal toolchains.
if command -v rustfmt >/dev/null 2>&1; then
    echo "== cargo fmt --check =="
    cargo fmt --all --check || echo "WARNING: formatting drift (non-fatal)"
else
    echo "== cargo fmt --check skipped (rustfmt not installed) =="
fi

echo "== verify OK =="
