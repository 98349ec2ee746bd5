//! E6 — The blind-token service (§4.2).
//!
//! Paper: "An RSP can however limit the impact of such attacks by handing
//! out blindly signed tokens at a limited rate to every device and
//! require that every device present a valid token when anonymously
//! uploading information."
//!
//! Measures: issue throughput, admission throughput through the served
//! ledger (`ShardedIngest`), rejection of forged and double-spent tokens,
//! rate-limit enforcement, and the success probability of the
//! Ru-guessing attack the token scheme bounds.

use orsp_bench::{arg_u64, compare, f, header, seed_from_args};
use orsp_client::UploadRequest;
use orsp_crypto::{derive_record_id, BigUint, DeviceSecret, Token, TokenMint, TokenWallet};
use orsp_net::ServiceConfig;
use orsp_server::{IngestOutcome, RejectReason, ShardedIngest};
use orsp_types::{
    DeviceId, EntityId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let seed = seed_from_args();
    let n_tokens = arg_u64("tokens", 400);
    header("E6", "Blind rate-limit tokens — throughput and attack resistance");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mint = TokenMint::new(&mut rng, 512, u32::MAX, SimDuration::DAY);
    let mut wallet = TokenWallet::new(DeviceId::new(1), mint.public_key().clone());
    let now = Timestamp::EPOCH;

    // Throughput.
    let t0 = Instant::now();
    for _ in 0..n_tokens {
        wallet.request_token(&mut rng, &mut mint, now).unwrap();
    }
    let issue_elapsed = t0.elapsed();
    // One upload per token, each to its own record, admitted through the
    // served path's engine at its default shard count.
    let upload = |i: u64, token: Token| UploadRequest {
        record_id: RecordId::from_bytes({
            let mut b = [0u8; 32];
            b[..8].copy_from_slice(&i.to_le_bytes());
            b
        }),
        entity: EntityId::new(i % 64),
        interaction: Interaction::solo(
            InteractionKind::Visit,
            Timestamp::from_seconds(i as i64 * 600),
            SimDuration::minutes(30),
            100.0,
        ),
        token,
        release_at: now,
    };
    let uploads: Vec<UploadRequest> =
        (0..n_tokens).map(|i| upload(i, wallet.take_token().unwrap())).collect();
    let key = mint.public_key().clone();
    let ingest = ShardedIngest::new(ServiceConfig::default().ingest_shards);
    let rejected_as = |outcome: IngestOutcome, reason: RejectReason| {
        matches!(outcome, IngestOutcome::Rejected(r) if r == reason)
    };
    let t1 = Instant::now();
    let accepted = uploads
        .iter()
        .filter(|u| matches!(ingest.ingest(u, &key), IngestOutcome::Accepted))
        .count();
    let admit_elapsed = t1.elapsed();
    println!("\nRSA-512 blind tokens (simulation-grade keys):");
    println!(
        "  issue (blind + sign + unblind + verify): {:>8} tokens/s",
        f(n_tokens as f64 / issue_elapsed.as_secs_f64())
    );
    println!(
        "  admit (verify + ledger + store):         {:>8} uploads/s",
        f(n_tokens as f64 / admit_elapsed.as_secs_f64())
    );
    assert_eq!(accepted, n_tokens as usize);

    // Double spend: every replay is caught.
    let replays = uploads
        .iter()
        .filter(|u| rejected_as(ingest.ingest(u, &key), RejectReason::DoubleSpend))
        .count();
    println!("  double-spend replays rejected:           {replays}/{n_tokens}");

    // Forgery: random signatures never verify.
    let mut forged_accepted = 0;
    for i in 0..200u64 {
        let token = Token {
            message: [(i % 251) as u8; 32],
            signature: BigUint::random_below(&mut rng, key.n()),
        };
        let forged = upload(n_tokens + i, token);
        if !rejected_as(ingest.ingest(&forged, &key), RejectReason::BadToken) {
            forged_accepted += 1;
        }
    }
    println!("  forged tokens accepted:                  {forged_accepted}/200");

    // Rate limit.
    let mut limited_mint = TokenMint::new(&mut rng, 256, 5, SimDuration::DAY);
    let mut w2 = TokenWallet::new(DeviceId::new(2), limited_mint.public_key().clone());
    let got = w2.top_up(&mut rng, &mut limited_mint, now, 100);
    println!("  tokens granted under limit of 5/day:     {got}/100 requested");

    // Ru-guessing: an attacker who wants to corrupt a victim's history
    // must guess the victim's 256-bit Ru. Empirically: random guesses
    // never collide with the victim's record id.
    let victim = DeviceSecret::generate(&mut rng);
    let entity = EntityId::new(42);
    let target = derive_record_id(&victim, entity);
    let guesses = 100_000;
    let mut hits = 0;
    for _ in 0..guesses {
        let guess = DeviceSecret::generate(&mut rng);
        if derive_record_id(&guess, entity) == target {
            hits += 1;
        }
    }
    println!("  Ru-guess collisions:                     {hits}/{guesses} (expected ~2^-256)");

    println!("\nPAPER vs MEASURED");
    compare("forged/double-spent uploads rejected", "all", &format!("{}", replays as u64 + 200 - forged_accepted));
    compare("rate limit bounds token grants", "5", &got.to_string());
    assert_eq!(forged_accepted, 0);
    assert_eq!(replays, n_tokens as usize);
    assert_eq!(got, 5);
    assert_eq!(hits, 0);
    println!("  shape check: PASS");
}
