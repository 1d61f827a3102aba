//! Problem instances: a sorted collection of posts plus per-label postings.
//!
//! An [`Instance`] is the `<P, lambda>` input of the paper with the `P` part
//! preprocessed the way every algorithm of Sections 4–5 expects it:
//!
//! * posts are sorted by diversity-dimension value (ties broken by id),
//! * for every label `a` the list `LP(a)` of matching post indices is
//!   materialized in sorted order,
//! * every `(post, label)` occurrence is assigned a dense *pair id* so the
//!   set-cover based algorithms can track coverage in flat bitmaps.

use crate::error::MqdError;
use crate::post::{LabelId, Post, PostId};

/// A preprocessed MQDP instance. Post indices (`u32`) returned by algorithms
/// always refer to the sorted order exposed by [`Instance::posts`].
#[derive(Clone, Debug)]
pub struct Instance {
    posts: Vec<Post>,
    postings: Vec<Vec<u32>>,
    pair_offsets: Vec<u32>,
    num_pairs: usize,
    max_labels_per_post: usize,
}

impl Instance {
    /// Builds an instance from raw posts. Posts are sorted by value; each
    /// post's labels must be `< num_labels`. Posts with an empty label set
    /// are dropped (they match no query, so MQDP never needs to cover them).
    pub fn from_posts(mut posts: Vec<Post>, num_labels: usize) -> Result<Self, MqdError> {
        check_labels(&posts, num_labels)?;
        posts.retain(|p| !p.labels().is_empty());
        posts.sort_by_key(|p| (p.value(), p.id()));
        Ok(Self::index(posts, num_labels))
    }

    /// Builds the postings and pair ids over posts in final order whose
    /// labels are all `< num_labels`.
    fn index(posts: Vec<Post>, num_labels: usize) -> Self {
        let mut sizes = vec![0usize; num_labels];
        for p in &posts {
            for &l in p.labels() {
                sizes[l.index()] += 1;
            }
        }
        let mut builder = InstanceBuilder::with_capacity(posts.len(), &sizes);
        for p in posts {
            builder.push(p);
        }
        builder.assemble()
    }

    /// Convenience constructor from `(value, labels)` tuples; ids are assigned
    /// from the input order.
    ///
    /// ```
    /// use mqd_core::Instance;
    /// let inst = Instance::from_values(
    ///     vec![(0, vec![0]), (10, vec![0, 1])], 2).unwrap();
    /// assert_eq!(inst.len(), 2);
    /// assert_eq!(inst.num_labels(), 2);
    /// assert_eq!(inst.overlap_rate(), 1.5);
    /// ```
    pub fn from_values(
        items: impl IntoIterator<Item = (i64, Vec<u16>)>,
        num_labels: usize,
    ) -> Result<Self, MqdError> {
        let posts = items
            .into_iter()
            .enumerate()
            .map(|(i, (v, ls))| {
                Post::new(PostId(i as u64), v, ls.into_iter().map(LabelId).collect())
            })
            .collect();
        Self::from_posts(posts, num_labels)
    }

    /// Number of posts `|P|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// Whether the instance has no posts.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }

    /// Number of labels `|L|`.
    #[inline]
    pub fn num_labels(&self) -> usize {
        self.postings.len()
    }

    /// All posts, sorted by diversity-dimension value.
    #[inline]
    pub fn posts(&self) -> &[Post] {
        &self.posts
    }

    /// The post at sorted index `i`.
    #[inline]
    pub fn post(&self, i: u32) -> &Post {
        &self.posts[i as usize]
    }

    /// The dimension value of the post at sorted index `i`.
    #[inline]
    pub fn value(&self, i: u32) -> i64 {
        self.posts[i as usize].value()
    }

    /// The label set of the post at sorted index `i`.
    #[inline]
    pub fn labels(&self, i: u32) -> &[LabelId] {
        self.posts[i as usize].labels()
    }

    /// `LP(a)`: sorted indices of the posts matching label `a`.
    #[inline]
    pub fn postings(&self, a: LabelId) -> &[u32] {
        &self.postings[a.index()]
    }

    /// Total number of `(post, label)` occurrences — the universe size of the
    /// set-cover reformulation in Section 4.2.
    #[inline]
    pub fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    /// Maximum number of labels on any single post — the `s` in the Scan
    /// approximation bound `|S_scan| <= s * |S_opt|`.
    #[inline]
    pub fn max_labels_per_post(&self) -> usize {
        self.max_labels_per_post
    }

    /// Average number of labels per post — the paper's *post overlap rate*
    /// (Section 7.2). Returns 0 for an empty instance.
    pub fn overlap_rate(&self) -> f64 {
        if self.posts.is_empty() {
            0.0
        } else {
            self.num_pairs as f64 / self.posts.len() as f64
        }
    }

    /// Dense id of the `(post, label)` pair, or `None` if the post does not
    /// match the label. Pair ids are contiguous in `0..num_pairs()`.
    #[inline]
    pub fn pair_id(&self, post: u32, a: LabelId) -> Option<u32> {
        let labels = self.posts[post as usize].labels();
        labels
            .binary_search(&a)
            .ok()
            .map(|slot| self.pair_offsets[post as usize] + slot as u32)
    }

    /// The pair-id range `[start, end)` of all label occurrences of `post`.
    #[inline]
    pub fn pair_range(&self, post: u32) -> std::ops::Range<u32> {
        self.pair_offsets[post as usize]..self.pair_offsets[post as usize + 1]
    }

    /// Indices `[lo, hi)` into `posts()` whose values lie in
    /// `[min_value, max_value]` (inclusive on both ends).
    pub fn window(&self, min_value: i64, max_value: i64) -> std::ops::Range<usize> {
        let lo = self.posts.partition_point(|p| p.value() < min_value);
        let hi = self.posts.partition_point(|p| p.value() <= max_value);
        lo..hi
    }

    /// Indices `[lo, hi)` into `postings(a)` whose post values lie in
    /// `[min_value, max_value]` (inclusive on both ends).
    pub fn posting_window(
        &self,
        a: LabelId,
        min_value: i64,
        max_value: i64,
    ) -> std::ops::Range<usize> {
        let lp = &self.postings[a.index()];
        let lo = lp.partition_point(|&i| self.value(i) < min_value);
        let hi = lp.partition_point(|&i| self.value(i) <= max_value);
        lo..hi
    }

    /// [`Instance::posting_window`] of `[t - radius, t + radius]`
    /// (saturating) around every `(post, label)` occurrence at once:
    /// `(lo, hi)` positions into `postings(a)`, indexed by pair id. Posts
    /// are in value order, so per label both bounds only ever move right;
    /// one two-pointer sweep replaces two binary searches per pair. A
    /// negative radius reaches nothing: every window is empty.
    pub fn pair_windows(&self, radius: i64) -> Vec<(u32, u32)> {
        self.pair_windows_with_gains(radius).0
    }

    /// [`Instance::pair_windows`], and per post the gain a greedy cover
    /// starts it at: the occurrences its windows hold, or 0 when the post
    /// is *dominated*. A post `k` is dominated when it carries a single
    /// label `a` and its window in `LP(a)` ends where the window of its
    /// predecessor `j` in `LP(a)` does: `j < k` is valued no higher, so its
    /// window starts no later, and at this radius `j` covers every
    /// occurrence `k` does. The sweep sees this as "`a`'s `hi` pointer did
    /// not move since `j`"; a label's first posting always moves it.
    pub(crate) fn pair_windows_with_gains(&self, radius: i64) -> (Vec<(u32, u32)>, Vec<u32>) {
        if radius < 0 {
            return (vec![(0, 0); self.num_pairs], vec![0; self.posts.len()]);
        }
        let mut bounds = vec![(0usize, 0usize); self.postings.len()];
        let mut windows = Vec::with_capacity(self.num_pairs);
        let mut gains = Vec::with_capacity(self.posts.len());
        for p in &self.posts {
            let min_value = p.value().saturating_sub(radius);
            let max_value = p.value().saturating_add(radius);
            let (mut gain, mut moved) = (0, true);
            for &a in p.labels() {
                let lp = &self.postings[a.index()];
                let (lo, hi) = &mut bounds[a.index()];
                while lp.get(*lo).is_some_and(|&i| self.value(i) < min_value) {
                    *lo += 1;
                }
                // The predecessor's window end, then this post's.
                let hp = *hi;
                while lp.get(*hi).is_some_and(|&i| self.value(i) <= max_value) {
                    *hi += 1;
                }
                let hk = *hi;
                moved = hp < hk;
                gain += (hk - *lo) as u32;
                windows.push((*lo as u32, hk as u32));
            }
            let dominated = !moved && p.labels().len() == 1;
            gains.push(if dominated { 0 } else { gain });
        }
        (windows, gains)
    }
}

/// Builds an [`Instance`] from posts pushed one at a time in instance order
/// (ascending `(value, id)`), indexing each as it comes: the postings and
/// pair ids are filled in the same pass that produces the posts, with no
/// check or index pass over them afterwards. This is how `mqd-store` turns
/// the rows its merge yields into a slice.
///
/// A post pushed out of order is accepted: [`InstanceBuilder::finish`] then
/// sorts the posts and indexes them again, as [`Instance::from_posts`] does.
/// A post with no labels is dropped, and one with a label `>= num_labels`
/// makes `finish` fail.
#[derive(Debug)]
pub struct InstanceBuilder {
    posts: Vec<Post>,
    postings: Vec<Vec<u32>>,
    /// Starts with 0; one more entry per post.
    pair_offsets: Vec<u32>,
    max_labels_per_post: usize,
    /// Every post so far came after the one before in `(value, id)` order.
    in_order: bool,
    /// The first label out of range, in push order.
    error: Option<MqdError>,
}

impl InstanceBuilder {
    /// A builder for up to `posts` posts over `label_sizes.len()` labels,
    /// of which `label_sizes[a]` carry label `a`. Both are capacities: a
    /// builder that gets more posts grows.
    pub fn with_capacity(posts: usize, label_sizes: &[usize]) -> Self {
        let mut pair_offsets = Vec::with_capacity(posts + 1);
        pair_offsets.push(0);
        InstanceBuilder {
            posts: Vec::with_capacity(posts),
            postings: label_sizes.iter().map(|&n| Vec::with_capacity(n)).collect(),
            pair_offsets,
            max_labels_per_post: 0,
            in_order: true,
            error: None,
        }
    }

    /// Appends `post` after the posts pushed so far.
    pub fn push(&mut self, post: Post) {
        let labels = post.labels();
        let Some(&last) = labels.last() else {
            return;
        };
        // Labels are ascending: the last is the largest.
        if last.index() >= self.postings.len() {
            self.error.get_or_insert(MqdError::LabelOutOfRange {
                label: last.0,
                num_labels: self.postings.len(),
            });
            return;
        }
        let key = (post.value(), post.id());
        self.in_order &= (self.posts.last()).is_none_or(|p| (p.value(), p.id()) <= key);
        let at = self.posts.len() as u32;
        for &l in labels {
            self.postings[l.index()].push(at);
        }
        let pairs = self.pair_offsets[at as usize] + labels.len() as u32;
        self.pair_offsets.push(pairs);
        self.max_labels_per_post = self.max_labels_per_post.max(labels.len());
        self.posts.push(post);
    }

    /// The instance over the posts pushed, or the first out-of-range
    /// label's typed error.
    pub fn finish(self) -> Result<Instance, MqdError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        if !self.in_order {
            let num_labels = self.postings.len();
            let mut posts = self.posts;
            posts.sort_by_key(|p| (p.value(), p.id()));
            return Ok(Instance::index(posts, num_labels));
        }
        Ok(self.assemble())
    }

    /// The instance over posts pushed in order with labels in range.
    fn assemble(self) -> Instance {
        debug_assert!(self.in_order && self.error.is_none());
        Instance {
            num_pairs: self.pair_offsets.last().copied().unwrap_or(0) as usize,
            posts: self.posts,
            postings: self.postings,
            pair_offsets: self.pair_offsets,
            max_labels_per_post: self.max_labels_per_post,
        }
    }
}

/// The first label `>= num_labels`, in input order, as the typed error.
fn check_labels(posts: &[Post], num_labels: usize) -> Result<(), MqdError> {
    for p in posts {
        for &l in p.labels() {
            if l.index() >= num_labels {
                return Err(MqdError::LabelOutOfRange {
                    label: l.0,
                    num_labels,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> Instance {
        // values deliberately unsorted on input
        Instance::from_values(
            vec![
                (30, vec![0, 1]),
                (10, vec![0]),
                (20, vec![1]),
                (40, vec![2, 0]),
            ],
            3,
        )
        .unwrap()
    }

    #[test]
    fn posts_sorted_by_value() {
        let i = inst();
        let values: Vec<i64> = i.posts().iter().map(|p| p.value()).collect();
        assert_eq!(values, vec![10, 20, 30, 40]);
    }

    #[test]
    fn postings_reference_sorted_indices() {
        let i = inst();
        assert_eq!(i.postings(LabelId(0)), &[0, 2, 3]);
        assert_eq!(i.postings(LabelId(1)), &[1, 2]);
        assert_eq!(i.postings(LabelId(2)), &[3]);
    }

    #[test]
    fn label_out_of_range_rejected() {
        let err = Instance::from_values(vec![(0, vec![5])], 3).unwrap_err();
        assert_eq!(
            err,
            MqdError::LabelOutOfRange {
                label: 5,
                num_labels: 3
            }
        );
    }

    #[test]
    fn unlabeled_posts_dropped() {
        let i = Instance::from_values(vec![(0, vec![]), (1, vec![0])], 1).unwrap();
        assert_eq!(i.len(), 1);
        assert_eq!(i.value(0), 1);
    }

    #[test]
    fn pair_ids_dense_and_correct() {
        let i = inst();
        assert_eq!(i.num_pairs(), 6);
        let mut seen = vec![false; i.num_pairs()];
        for p in 0..i.len() as u32 {
            for &a in i.labels(p) {
                let id = i.pair_id(p, a).unwrap();
                assert!(!seen[id as usize]);
                seen[id as usize] = true;
            }
        }
        assert!(seen.iter().all(|&b| b));
        assert_eq!(i.pair_id(1, LabelId(0)), None); // post at value 20 lacks L0
    }

    #[test]
    fn windows_inclusive() {
        let i = inst();
        assert_eq!(i.window(10, 30), 0..3);
        assert_eq!(i.window(11, 29), 1..2);
        assert_eq!(i.window(41, 50), 4..4);
        assert_eq!(i.posting_window(LabelId(0), 10, 30), 0..2);
        assert_eq!(i.posting_window(LabelId(0), 35, 100), 2..3);
    }

    #[test]
    fn overlap_rate_and_s() {
        let i = inst();
        assert!((i.overlap_rate() - 1.5).abs() < 1e-12);
        assert_eq!(i.max_labels_per_post(), 2);
    }

    #[test]
    fn builder_drops_unlabeled_posts_sorts_late_ones_and_rejects_bad_labels() {
        let post = |id: u64, value: i64, ls: &[u16]| {
            Post::new(PostId(id), value, ls.iter().map(|&l| LabelId(l)).collect())
        };
        let posts = [
            post(4, 10, &[0]),
            post(9, 20, &[1, 2]),
            post(7, 20, &[]),
            post(3, 20, &[0]),
            post(5, 30, &[2]),
        ];
        let mut builder = InstanceBuilder::with_capacity(2, &[1, 1, 1]);
        posts.iter().for_each(|p| builder.push(p.clone()));
        let built = builder.finish().unwrap();
        let sorted = Instance::from_posts(posts.to_vec(), 3).unwrap();
        assert_eq!(built.posts(), sorted.posts());
        assert_eq!(built.len(), 4);
        for a in 0..3 {
            assert_eq!(built.postings(LabelId(a)), sorted.postings(LabelId(a)));
        }
        assert_eq!(built.num_pairs(), 5);
        assert_eq!(built.max_labels_per_post(), 2);

        let mut builder = InstanceBuilder::with_capacity(0, &[0, 0]);
        builder.push(post(1, 0, &[1]));
        builder.push(post(2, 1, &[0, 4]));
        builder.push(post(3, 2, &[7]));
        assert_eq!(
            builder.finish().unwrap_err(),
            MqdError::LabelOutOfRange {
                label: 4,
                num_labels: 2
            }
        );
    }
}
