//! Multi-user fan-out: one pass over the global post stream serving many
//! subscribers at once.
//!
//! Section 7.3 motivates Scan-family algorithms because the diversifier
//! "has to be executed for millions of users (as in Twitter)". Running one
//! engine per user touches every user for every post; this hub inverts the
//! subscriptions (topic → users) so a post only touches the users actually
//! subscribed to one of its topics, and keeps the per-(user, topic)
//! instant-output cache of Section 5.1 (`tau = 0`, `2s`-bounded per user).
//!
//! Equivalence with running [`crate::InstantScan`] independently per user
//! is covered by tests.
//!
//! For **offline** digests (a user opening their timeline and receiving a
//! diversified recap) the batch solver [`solve_batch_users`] distributes
//! users across worker threads over one shared read-only [`Instance`]:
//! each worker builds the user's label-filtered view, runs the sequential
//! GreedySC on it (no nested parallelism), and maps the digest back to
//! global post indices. Users are independent, so the output is
//! byte-identical at any thread count.

use std::collections::HashMap;

use mqd_core::algorithms::solve_greedy_sc_threads;
use mqd_core::{FixedLambda, Instance, LabelId, Post, PostId};

/// Per-user delivery statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct UserStats {
    /// Posts matching at least one subscribed topic.
    pub matched: u64,
    /// Posts actually delivered (the diversified sub-stream).
    pub delivered: u64,
}

/// The shared-pass multi-user diversifier (instant output).
///
/// ```
/// use mqd_stream::MultiUserHub;
/// // user 0 follows topic 7; user 1 follows topics 7 and 9.
/// let mut hub = MultiUserHub::new(vec![vec![7], vec![7, 9]], 10);
/// assert_eq!(hub.on_post(0, &[7]), vec![0, 1]);   // first post: both users
/// assert!(hub.on_post(5, &[7]).is_empty());       // covered for both
/// assert_eq!(hub.on_post(6, &[9]), vec![1]);      // topic 9 is new for user 1
/// ```
#[derive(Debug)]
pub struct MultiUserHub {
    lambda: i64,
    /// topic -> subscribed user ids.
    subscribers: HashMap<u32, Vec<u32>>,
    /// (user, topic) -> time of the last post delivered to this user that
    /// carried this topic.
    cache: HashMap<(u32, u32), i64>,
    stats: Vec<UserStats>,
    /// Per-user subscription lists (for delivery-time cache updates).
    subscriptions: Vec<Vec<u32>>,
}

impl MultiUserHub {
    /// Builds a hub: `subscriptions[u]` is user `u`'s topic list; `lambda`
    /// is the uniform diversity threshold on the time dimension.
    pub fn new(subscriptions: Vec<Vec<u32>>, lambda: i64) -> Self {
        assert!(lambda >= 0);
        let mut subscribers: HashMap<u32, Vec<u32>> = HashMap::new();
        for (u, topics) in subscriptions.iter().enumerate() {
            for &t in topics {
                let entry = subscribers.entry(t).or_default();
                if entry.last() != Some(&(u as u32)) {
                    entry.push(u as u32);
                }
            }
        }
        let stats = vec![UserStats::default(); subscriptions.len()];
        MultiUserHub {
            lambda,
            subscribers,
            cache: HashMap::new(),
            stats,
            subscriptions,
        }
    }

    /// Per-user statistics so far.
    pub fn stats(&self) -> &[UserStats] {
        &self.stats
    }

    /// Processes one global post (its timestamp and topic annotations);
    /// posts must arrive in non-decreasing time order. Returns the ids of
    /// the users this post is delivered to (sorted, deduplicated).
    pub fn on_post(&mut self, time: i64, topics: &[u32]) -> Vec<u32> {
        // Users touched by this post, with the subset of their subscribed
        // topics the post carries.
        let mut touched: Vec<u32> = topics
            .iter()
            .filter_map(|t| self.subscribers.get(t))
            .flat_map(|us| us.iter().copied())
            .collect();
        touched.sort_unstable();
        touched.dedup();

        let mut delivered = Vec::new();
        for &u in &touched {
            self.stats[u as usize].matched += 1;
            // Instant rule: deliver iff some shared topic's cache entry is
            // stale (no delivery within lambda).
            let shared: Vec<u32> = self.subscriptions[u as usize]
                .iter()
                .copied()
                .filter(|t| topics.contains(t))
                .collect();
            // Gap in i128: `time - last` overflows i64 when the stream
            // spans most of the timestamp domain.
            let uncovered = shared.iter().any(|&t| {
                self.cache
                    .get(&(u, t))
                    .is_none_or(|&last| time as i128 - last as i128 > self.lambda as i128)
            });
            if uncovered {
                for &t in &shared {
                    self.cache.insert((u, t), time);
                }
                self.stats[u as usize].delivered += 1;
                delivered.push(u);
            }
        }
        delivered
    }
}

/// One user's digest request: the global labels they subscribe to and
/// their uniform diversity threshold.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchUser {
    /// Subscribed global label ids (deduplicated internally; order kept).
    pub labels: Vec<u16>,
    /// Uniform threshold on the diversity dimension.
    pub lambda: i64,
}

/// Solves one GreedySC digest per user over a shared read-only instance,
/// distributing users across the configured worker threads. Returns, per
/// user, the selected **global** post indices (sorted). Byte-identical to
/// the sequential per-user loop at any thread count.
pub fn solve_batch_users(inst: &Instance, users: &[BatchUser]) -> Vec<Vec<u32>> {
    solve_batch_users_threads(mqd_par::configured_threads(), inst, users)
}

/// [`solve_batch_users`] with an explicit thread count.
pub fn solve_batch_users_threads(
    threads: usize,
    inst: &Instance,
    users: &[BatchUser],
) -> Vec<Vec<u32>> {
    mqd_par::par_map_range_coarse_threads(threads, users.len(), |u| solve_one_user(inst, &users[u]))
}

/// Builds the user's label-filtered sub-instance and solves it with the
/// sequential GreedySC (workers must not nest parallelism).
fn solve_one_user(inst: &Instance, user: &BatchUser) -> Vec<u32> {
    let mut subscribed = user.labels.clone();
    subscribed.sort_unstable();
    subscribed.dedup();
    // Global label -> dense local id.
    let local: HashMap<u16, u16> = subscribed
        .iter()
        .enumerate()
        .map(|(i, &g)| (g, i as u16))
        .collect();

    let mut posts = Vec::new();
    let mut to_global = Vec::new();
    for k in 0..inst.len() as u32 {
        let labels: Vec<LabelId> = inst
            .labels(k)
            .iter()
            .filter_map(|a| local.get(&(a.index() as u16)).map(|&l| LabelId(l)))
            .collect();
        if !labels.is_empty() {
            posts.push(Post::new(PostId(k as u64), inst.value(k), labels));
            to_global.push(k);
        }
    }
    if posts.is_empty() {
        return Vec::new();
    }
    let sub = Instance::from_posts(posts, subscribed.len())
        // lint:allow(panic-path): the remap above assigns ids 0..subscribed.len(), so density holds by construction
        .expect("local labels are dense by construction");
    let sol = solve_greedy_sc_threads(1, &sub, &FixedLambda(user.lambda));
    let mut out: Vec<u32> = sol
        .selected
        .iter()
        .map(|&i| to_global[i as usize])
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instant::InstantScan;
    use crate::simulator::run_stream;
    use mqd_core::{FixedLambda, Instance, LabelId, Post, PostId};

    #[test]
    fn routes_only_to_subscribers() {
        let mut hub = MultiUserHub::new(vec![vec![0], vec![1], vec![0, 1]], 10);
        assert_eq!(hub.stats().len(), 3);
        let d = hub.on_post(0, &[0]);
        assert_eq!(d, vec![0, 2]);
        let d = hub.on_post(1, &[2]); // nobody subscribed
        assert!(d.is_empty());
        assert_eq!(hub.stats()[1].matched, 0);
    }

    #[test]
    fn instant_rule_suppresses_covered_posts() {
        let mut hub = MultiUserHub::new(vec![vec![7]], 10);
        assert_eq!(hub.on_post(0, &[7]), vec![0]);
        assert!(hub.on_post(5, &[7]).is_empty()); // within lambda
        assert_eq!(hub.on_post(11, &[7]), vec![0]); // beyond lambda
        assert_eq!(
            hub.stats()[0],
            UserStats {
                matched: 3,
                delivered: 2
            }
        );
    }

    #[test]
    fn cross_topic_delivery_updates_all_shared_caches() {
        // A post carrying both topics refreshes both caches, exactly like
        // InstantScan's cache update.
        let mut hub = MultiUserHub::new(vec![vec![0, 1]], 10);
        assert_eq!(hub.on_post(0, &[0, 1]), vec![0]);
        assert!(hub.on_post(5, &[1]).is_empty());
        assert_eq!(hub.on_post(20, &[1]), vec![0]);
    }

    /// The hub must behave exactly like one InstantScan per user.
    #[test]
    fn equivalent_to_per_user_instant_engines() {
        use mqd_rng::rngs::StdRng;
        use mqd_rng::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let num_topics = 6u32;
        let users: Vec<Vec<u32>> = (0..5)
            .map(|_| {
                let mut ts: Vec<u32> = (0..num_topics)
                    .filter(|_| rng.random::<f64>() < 0.4)
                    .collect();
                if ts.is_empty() {
                    ts.push(rng.random_range(0..num_topics));
                }
                ts
            })
            .collect();
        // Global stream: strictly increasing times to avoid tie ambiguity.
        let stream: Vec<(i64, Vec<u32>)> = (0..200)
            .map(|i| {
                let t = i as i64 * 3 + rng.random_range(0..2);
                let mut topics = vec![rng.random_range(0..num_topics)];
                if rng.random::<f64>() < 0.3 {
                    topics.push(rng.random_range(0..num_topics));
                }
                topics.sort_unstable();
                topics.dedup();
                (t, topics)
            })
            .collect();
        let lambda = 25i64;

        let mut hub = MultiUserHub::new(users.clone(), lambda);
        let mut hub_deliveries: Vec<Vec<i64>> = vec![Vec::new(); users.len()];
        for (t, topics) in &stream {
            for u in hub.on_post(*t, topics) {
                hub_deliveries[u as usize].push(*t);
            }
        }

        for (u, topics) in users.iter().enumerate() {
            // Build this user's filtered instance with local label ids.
            let mut posts = Vec::new();
            for (i, (t, ptopics)) in stream.iter().enumerate() {
                let labels: Vec<LabelId> = topics
                    .iter()
                    .enumerate()
                    .filter(|(_, gt)| ptopics.contains(gt))
                    .map(|(local, _)| LabelId(local as u16))
                    .collect();
                if !labels.is_empty() {
                    posts.push(Post::new(PostId(i as u64), *t, labels));
                }
            }
            let inst = Instance::from_posts(posts, topics.len()).unwrap();
            let mut eng = InstantScan::new(topics.len());
            let res = run_stream(&inst, &FixedLambda(lambda), 0, &mut eng);
            let expect: Vec<i64> = res.selected.iter().map(|&i| inst.value(i)).collect();
            assert_eq!(
                hub_deliveries[u], expect,
                "user {u} hub vs standalone mismatch"
            );
        }
    }

    #[test]
    fn hub_survives_extreme_timestamps() {
        // Regression: the staleness check `time - last > lambda` was raw
        // i64 and overflowed once a stream spanned most of the timestamp
        // domain.
        let mut hub = MultiUserHub::new(vec![vec![0]], 10);
        assert_eq!(hub.on_post(i64::MIN + 1, &[0]), vec![0]);
        // Far beyond lambda: must deliver, not wrap around.
        assert_eq!(hub.on_post(i64::MAX, &[0]), vec![0]);
        assert_eq!(
            hub.stats()[0],
            UserStats {
                matched: 2,
                delivered: 2
            }
        );
    }

    #[test]
    fn empty_hub() {
        let mut hub = MultiUserHub::new(vec![], 5);
        assert!(hub.on_post(0, &[1]).is_empty());
        assert_eq!(hub.stats().len(), 0);
    }

    fn batch_fixture() -> (Instance, Vec<BatchUser>) {
        use mqd_rng::rngs::StdRng;
        use mqd_rng::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut t = 0i64;
        let items: Vec<(i64, Vec<u16>)> = (0..300)
            .map(|_| {
                t += rng.random_range(0..30i64);
                let mut ls = vec![rng.random_range(0..8u16)];
                if rng.random::<f64>() < 0.3 {
                    ls.push(rng.random_range(0..8u16));
                    ls.sort_unstable();
                    ls.dedup();
                }
                (t, ls)
            })
            .collect();
        let inst = Instance::from_values(items, 8).unwrap();
        let users: Vec<BatchUser> = (0..12)
            .map(|_| {
                let k = rng.random_range(1..4usize);
                BatchUser {
                    labels: (0..k).map(|_| rng.random_range(0..8u16)).collect(),
                    lambda: rng.random_range(10..120i64),
                }
            })
            .collect();
        (inst, users)
    }

    #[test]
    fn batch_solver_identical_across_thread_counts() {
        let (inst, users) = batch_fixture();
        let seq = solve_batch_users_threads(1, &inst, &users);
        assert_eq!(seq.len(), users.len());
        for threads in [2, 3, 8] {
            assert_eq!(
                solve_batch_users_threads(threads, &inst, &users),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn batch_digests_cover_each_users_view() {
        use mqd_core::coverage;
        let (inst, users) = batch_fixture();
        let digests = solve_batch_users_threads(2, &inst, &users);
        for (user, digest) in users.iter().zip(&digests) {
            // Rebuild the user's filtered view and check the digest (mapped
            // back to local indices) is a lambda-cover of it.
            let mut subscribed = user.labels.clone();
            subscribed.sort_unstable();
            subscribed.dedup();
            let mut posts = Vec::new();
            let mut to_global = Vec::new();
            for k in 0..inst.len() as u32 {
                let labels: Vec<LabelId> = inst
                    .labels(k)
                    .iter()
                    .filter_map(|a| {
                        subscribed
                            .iter()
                            .position(|&g| g as usize == a.index())
                            .map(|l| LabelId(l as u16))
                    })
                    .collect();
                if !labels.is_empty() {
                    posts.push(Post::new(PostId(k as u64), inst.value(k), labels));
                    to_global.push(k);
                }
            }
            if posts.is_empty() {
                assert!(digest.is_empty());
                continue;
            }
            let sub = Instance::from_posts(posts, subscribed.len()).unwrap();
            let local_sel: Vec<u32> = digest
                .iter()
                .map(|g| to_global.iter().position(|x| x == g).unwrap() as u32)
                .collect();
            assert!(coverage::is_cover(
                &sub,
                &FixedLambda(user.lambda),
                &local_sel
            ));
        }
    }

    #[test]
    fn batch_user_with_unused_labels_gets_empty_digest() {
        let inst = Instance::from_values(vec![(0, vec![0]), (5, vec![1])], 2).unwrap();
        let users = vec![BatchUser {
            labels: vec![7],
            lambda: 10,
        }];
        // Label 7 never occurs: the filtered view is empty.
        assert_eq!(
            solve_batch_users_threads(2, &inst, &users),
            vec![Vec::<u32>::new()]
        );
    }
}
