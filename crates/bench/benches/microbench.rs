//! Criterion microbenchmarks over the hot paths of every subsystem:
//! crypto primitives, history-store ingest, visit sessionization, feature
//! extraction + prediction, mix batching, and search queries.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use orsp_aggregate::EmpiricalCdf;
use orsp_client::{EntityDirectory, EntityMapper, SessionizerConfig, VisitSessionizer};
use orsp_crypto::{sha256, BigUint, RsaKeyPair};
use orsp_inference::{FeatureVector, OpinionPredictor, PairContext};
use orsp_inference::predictor::PredictorConfig;
use orsp_search::{Ranker, ReviewSummary, InferredSummary};
use orsp_sensors::{FixSource, LocationFix};
use orsp_server::HistoryStore;
use orsp_types::{
    Category, Cuisine, EntityId, GeoPoint, Interaction, InteractionHistory, InteractionKind,
    Rating, RecordId, SimDuration, Timestamp,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_sha256(c: &mut Criterion) {
    let data = vec![0xabu8; 4096];
    c.bench_function("sha256_4k", |b| b.iter(|| sha256(black_box(&data))));
}

fn bench_bigint(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let kp = RsaKeyPair::generate(&mut rng, 256);
    let m = BigUint::random_below(&mut rng, kp.public.n());
    c.bench_function("rsa256_modpow_public", |b| {
        b.iter(|| kp.public.apply(black_box(&m)))
    });
    c.bench_function("rsa256_modpow_private", |b| {
        b.iter(|| kp.apply_private(black_box(&m)))
    });
    let n2 = kp.public.n().mul(kp.public.n());
    c.bench_function("bigint_div_rem_512_by_256", |b| {
        b.iter(|| n2.div_rem(black_box(kp.public.n())))
    });
    c.bench_function("bigint_mod_inverse_odd_256", |b| {
        b.iter(|| m.mod_inverse(black_box(kp.public.n())))
    });
}

fn bench_history_store(c: &mut Criterion) {
    c.bench_function("history_store_ingest_1k", |b| {
        b.iter(|| {
            let mut store = HistoryStore::new();
            for i in 0..1_000u64 {
                let rid = RecordId::from_bytes([(i % 251) as u8; 32]);
                store
                    .append(
                        rid,
                        EntityId::new(i % 50),
                        Interaction::solo(
                            InteractionKind::Visit,
                            Timestamp::from_seconds(i as i64 * 10_000),
                            SimDuration::minutes(30),
                            100.0,
                        ),
                    )
                    .ok();
            }
            black_box(store.len())
        })
    });
}

fn bench_sessionizer(c: &mut Criterion) {
    let mapper = EntityMapper::new(vec![EntityDirectory {
        id: EntityId::new(0),
        name: "Cafe".into(),
        category: Category::Restaurant(Cuisine::Thai),
        location: GeoPoint::new(500.0, 500.0),
        phone: 1,
    }]);
    // A day of fixes alternating between home and the cafe.
    let mut fixes = Vec::new();
    let mut rng = StdRng::seed_from_u64(2);
    for i in 0..2_000i64 {
        let at_cafe = (i / 50) % 2 == 0;
        let base = if at_cafe { GeoPoint::new(500.0, 500.0) } else { GeoPoint::ORIGIN };
        fixes.push(LocationFix {
            time: Timestamp::from_seconds(i * 300),
            point: base.offset(rng.gen_range(-10.0..10.0), rng.gen_range(-10.0..10.0)),
            source: FixSource::Gps,
        });
    }
    c.bench_function("sessionize_2k_fixes", |b| {
        b.iter(|| {
            VisitSessionizer::sessionize(
                black_box(&fixes),
                &mapper,
                SessionizerConfig::default(),
            )
            .len()
        })
    });
}

fn bench_inference(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let history = InteractionHistory::from_records(
        (0..12)
            .map(|i| {
                Interaction::solo(
                    InteractionKind::Visit,
                    Timestamp::from_seconds(i * 20 * 86_400),
                    SimDuration::minutes(45),
                    1_500.0,
                )
            })
            .collect(),
    )
    .unwrap();
    let ctx = PairContext { alternatives_tried: 4, settled_share: 0.6, choice_set_size: 9, mean_hr_delta: 0.0 };
    c.bench_function("feature_extract", |b| {
        b.iter(|| FeatureVector::extract(black_box(&history), &ctx))
    });

    let examples: Vec<(FeatureVector, Rating)> = (0..500)
        .map(|_| {
            let mut h = InteractionHistory::new();
            let n = rng.gen_range(2..15);
            for i in 0..n {
                h.push(Interaction::solo(
                    InteractionKind::Visit,
                    Timestamp::from_seconds(i * 15 * 86_400),
                    SimDuration::minutes(rng.gen_range(20..80)),
                    rng.gen_range(100.0..5_000.0),
                ))
                .unwrap();
            }
            let f = FeatureVector::extract(&h, &ctx);
            (f, Rating::new(rng.gen_range(0.0..5.0)))
        })
        .collect();
    c.bench_function("predictor_train_500", |b| {
        b.iter(|| OpinionPredictor::train(black_box(&examples), PredictorConfig::default()))
    });
    let model = OpinionPredictor::train(&examples, PredictorConfig::default()).unwrap();
    let f = FeatureVector::extract(&history, &ctx);
    c.bench_function("predictor_predict", |b| {
        b.iter(|| model.predict(black_box(&f), 12))
    });
}

fn bench_ranking(c: &mut Criterion) {
    let ranker = Ranker::default();
    let results: Vec<(EntityId, ReviewSummary, InferredSummary)> = (0..200)
        .map(|i| {
            let mut explicit = ReviewSummary::default();
            let mut inferred = InferredSummary::default();
            for s in 0..(i % 7) {
                explicit.histogram.add(Rating::stars((s % 6) as u8));
            }
            for s in 0..(i % 40) {
                inferred.histogram.add(Rating::stars(((s + i) % 6) as u8));
            }
            (EntityId::new(i as u64), explicit, inferred)
        })
        .collect();
    c.bench_function("rank_200_results", |b| {
        b.iter(|| ranker.rank(black_box(results.clone())).len())
    });
}

fn bench_cdf(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let samples: Vec<f64> = (0..25_000).map(|_| rng.gen_range(0.0..1_000.0)).collect();
    c.bench_function("cdf_build_25k", |b| {
        b.iter(|| EmpiricalCdf::new(black_box(samples.clone())).median())
    });
}

criterion_group!(
    benches,
    bench_sha256,
    bench_bigint,
    bench_history_store,
    bench_sessionizer,
    bench_inference,
    bench_ranking,
    bench_cdf
);
criterion_main!(benches);
