//! Micro-benchmarks for the substrates: tokenizer, SimHash, inverted
//! index / matcher, LDA sweeps, and the set-cover primitives
//! (std-only harness).

use mqd_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use mqd_datagen::{generate_news, generate_tweets, NewsConfig, TweetStreamConfig, MINUTE_MS};
use mqd_setcover::{greedy_cover, lazy_greedy_cover, BitSet, Goal, PresenceFenwick};
use mqd_text::{
    simhash, tokenize, InvertedIndex, KeywordMatcher, NearDuplicateFilter, SentimentScorer,
};
use mqd_topics::{LdaConfig, LdaModel, Vocabulary};

fn bench_text(c: &mut Criterion) {
    let tweets = generate_tweets(&TweetStreamConfig {
        tweets_per_minute: 120.0,
        duration_ms: 2 * MINUTE_MS,
        ..Default::default()
    });
    let texts: Vec<&str> = tweets.iter().map(|t| t.text.as_str()).collect();

    c.bench_function("tokenize_tweet", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % texts.len();
            black_box(tokenize(texts[i]))
        })
    });
    c.bench_function("simhash_tweet", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % texts.len();
            black_box(simhash(texts[i]))
        })
    });
    c.bench_function("sentiment_tweet", |b| {
        let scorer = SentimentScorer::new();
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % texts.len();
            black_box(scorer.score(texts[i]))
        })
    });
    c.bench_function("near_dup_filter_stream", |b| {
        b.iter(|| {
            let mut f = NearDuplicateFilter::new(3);
            let mut kept = 0;
            for t in &texts {
                if f.insert_text(t) {
                    kept += 1;
                }
            }
            black_box(kept)
        })
    });
    c.bench_function("matcher_per_tweet", |b| {
        let queries: Vec<Vec<String>> = vec![
            vec!["obama".into(), "senate".into(), "congress".into()],
            vec!["nasdaq".into(), "stocks".into(), "market".into()],
        ];
        let m = KeywordMatcher::new(&queries);
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % texts.len();
            black_box(m.match_labels(texts[i]))
        })
    });
    c.bench_function("inverted_index_build_200", |b| {
        b.iter(|| {
            let mut idx = InvertedIndex::new();
            for t in texts.iter().take(200) {
                idx.add_document(t);
            }
            black_box(idx.len())
        })
    });
}

fn bench_lda(c: &mut Criterion) {
    let corpus = generate_news(&NewsConfig {
        articles: 60,
        ..Default::default()
    });
    let mut vocab = Vocabulary::new();
    let docs: Vec<Vec<u32>> = corpus.iter().map(|a| vocab.intern_text(&a.text)).collect();
    c.bench_function("lda_5_sweeps_60_docs", |b| {
        b.iter(|| {
            black_box(LdaModel::train(
                &docs,
                vocab.len(),
                LdaConfig {
                    num_topics: 8,
                    iterations: 5,
                    ..Default::default()
                },
            ))
        })
    });
}

fn bench_setcover(c: &mut Criterion) {
    // Deterministic pseudo-random sets.
    let mut state = 1u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        state >> 33
    };
    let n = 2_000usize;
    let sets: Vec<Vec<u32>> = (0..400)
        .map(|_| {
            (0..n as u32)
                .filter(|_| next() % 20 == 0)
                .collect::<Vec<u32>>()
        })
        .collect();
    c.bench_function("greedy_cover_scan_max", |b| {
        b.iter(|| {
            let mut cov = BitSet::new(n);
            black_box(greedy_cover(&sets, &mut cov, Goal::CoverAll))
        })
    });
    c.bench_function("greedy_cover_lazy", |b| {
        b.iter(|| {
            let mut cov = BitSet::new(n);
            black_box(lazy_greedy_cover(&sets, &mut cov, Goal::CoverAll))
        })
    });
    c.bench_function("fenwick_count_clear", |b| {
        b.iter(|| {
            let mut f = PresenceFenwick::all_present(n);
            let mut acc = 0u32;
            for i in (0..n).step_by(3) {
                f.clear(i);
                acc += f.count_range(0, n);
            }
            black_box(acc)
        })
    });
}

fn bench_rt_index(c: &mut Criterion) {
    let tweets = generate_tweets(&TweetStreamConfig {
        tweets_per_minute: 200.0,
        duration_ms: 10 * MINUTE_MS,
        ..Default::default()
    });
    c.bench_function("rt_index_ingest_1k", |b| {
        b.iter(|| {
            let mut idx = mqd_text::RtIndex::new(MINUTE_MS);
            for t in tweets.iter().take(1_000) {
                idx.add_document(&t.text, t.timestamp_ms);
            }
            black_box(idx.len())
        })
    });
    let mut idx = mqd_text::RtIndex::new(MINUTE_MS);
    for t in &tweets {
        idx.add_document(&t.text, t.timestamp_ms);
    }
    let kws: Vec<String> = vec!["obama".into(), "senate".into(), "market".into()];
    c.bench_function("rt_index_range_search", |b| {
        b.iter(|| black_box(idx.search(&kws, 2 * MINUTE_MS, 8 * MINUTE_MS)))
    });
}

fn bench_multiuser_hub(c: &mut Criterion) {
    // 10k users over 300 topics; measure per-post hub cost.
    let mut state = 5u64;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(5);
        state >> 33
    };
    let subs: Vec<Vec<u32>> = (0..10_000)
        .map(|_| (0..3).map(|_| (next() % 300) as u32).collect())
        .collect();
    let stream: Vec<(i64, Vec<u32>)> = (0..5_000)
        .map(|i| (i as i64 * 20, vec![(next() % 300) as u32]))
        .collect();
    c.bench_function("multiuser_hub_5k_posts_10k_users", |b| {
        b.iter(|| {
            let mut hub = mqd_stream::MultiUserHub::new(subs.clone(), 60_000);
            let mut total = 0usize;
            for (t, topics) in &stream {
                total += hub.on_post(*t, topics).len();
            }
            black_box(total)
        })
    });
}

fn bench_binlog(c: &mut Criterion) {
    let rows: Vec<mqd_core::record::Record> = (0..10_000)
        .map(|i| mqd_core::record::Record {
            id: i,
            value: 1_000_000 + i as i64 * 137,
            labels: vec![(i % 7) as u16],
        })
        .collect();
    c.bench_function("binlog_encode_10k", |b| {
        b.iter(|| black_box(mqd_core::record::encode_records(&rows)))
    });
    let data = mqd_core::record::encode_records(&rows);
    c.bench_function("binlog_decode_10k", |b| {
        b.iter(|| black_box(mqd_core::record::decode_records(&data).unwrap()))
    });
}

fn bench_geo(c: &mut Criterion) {
    let posts = mqd_geo::generate_geo_posts(&mqd_geo::GeoStreamConfig {
        posts: 1_000,
        ..Default::default()
    });
    let inst = mqd_geo::GeoInstance::new(posts, 3, mqd_geo::GeoLambda::new(300_000, 500));
    c.bench_function("geo_greedy_1k", |b| {
        b.iter(|| black_box(mqd_geo::solve_geo_greedy(&inst)))
    });
    c.bench_function("geo_sweep_1k", |b| {
        b.iter(|| black_box(mqd_geo::solve_geo_sweep(&inst)))
    });
}

criterion_group!(
    benches,
    bench_text,
    bench_lda,
    bench_setcover,
    bench_rt_index,
    bench_multiuser_hub,
    bench_binlog,
    bench_geo
);
criterion_main!(benches);
