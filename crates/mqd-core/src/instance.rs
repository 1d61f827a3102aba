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

    /// [`Instance::from_posts`] for posts that are already in instance
    /// order, which the caller guarantees: ascending `(value, id)` and no
    /// empty label set. Nothing is sorted or filtered, so building is
    /// linear (this is how `mqd-store` hands over a slice it merged in that
    /// order).
    pub fn from_sorted_posts(posts: Vec<Post>, num_labels: usize) -> Result<Self, MqdError> {
        check_labels(&posts, num_labels)?;
        debug_assert!(posts.iter().all(|p| !p.labels().is_empty()));
        debug_assert!(posts.is_sorted_by_key(|p| (p.value(), p.id())));
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
        let mut postings: Vec<Vec<u32>> = sizes.into_iter().map(Vec::with_capacity).collect();
        let mut pair_offsets = Vec::with_capacity(posts.len() + 1);
        let mut num_pairs = 0u32;
        let mut max_labels = 0usize;
        for (i, p) in posts.iter().enumerate() {
            pair_offsets.push(num_pairs);
            max_labels = max_labels.max(p.labels().len());
            for &l in p.labels() {
                postings[l.index()].push(i as u32);
            }
            num_pairs += p.labels().len() as u32;
        }
        pair_offsets.push(num_pairs);

        Instance {
            posts,
            postings,
            pair_offsets,
            num_pairs: num_pairs as usize,
            max_labels_per_post: max_labels,
        }
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
        if radius < 0 {
            return vec![(0, 0); self.num_pairs];
        }
        let mut bounds = vec![(0usize, 0usize); self.postings.len()];
        let mut windows = Vec::with_capacity(self.num_pairs);
        for p in &self.posts {
            let min_value = p.value().saturating_sub(radius);
            let max_value = p.value().saturating_add(radius);
            for &a in p.labels() {
                let lp = &self.postings[a.index()];
                let (lo, hi) = &mut bounds[a.index()];
                while lp.get(*lo).is_some_and(|&i| self.value(i) < min_value) {
                    *lo += 1;
                }
                while lp.get(*hi).is_some_and(|&i| self.value(i) <= max_value) {
                    *hi += 1;
                }
                windows.push((*lo as u32, *hi as u32));
            }
        }
        windows
    }

    /// Restricts the instance to posts whose value lies in
    /// `[min_value, max_value]`, keeping the same label space. Used to carve
    /// the 10-minute evaluation slices of Section 7.2 out of a full day.
    pub fn slice(&self, min_value: i64, max_value: i64) -> Instance {
        let r = self.window(min_value, max_value);
        let posts = self.posts[r].to_vec();
        Instance::from_posts(posts, self.num_labels()).expect("slice of a valid instance is valid")
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
    fn slice_preserves_label_space() {
        let i = inst();
        let s = i.slice(15, 35);
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_labels(), 3);
        assert_eq!(s.value(0), 20);
    }
}
