//! Post and label primitives.
//!
//! A [`Post`] is the unit of input to every algorithm in this crate: a value
//! on the chosen *diversity dimension* (Section 2 of the paper) plus the set
//! of labels (queries) the post matches. The dimension value is an `i64` in
//! fixed-point units — milliseconds for the time dimension, or polarity
//! scaled by [`SENTIMENT_SCALE`] for the sentiment dimension — so that the
//! coverage predicate `|F(P_i) - F(P_j)| <= lambda` is exact.

use std::fmt;

/// Fixed-point scale used to map a sentiment polarity in `[-1.0, 1.0]` onto
/// the integer diversity dimension: `value = (polarity * SENTIMENT_SCALE)`.
pub const SENTIMENT_SCALE: i64 = 1_000_000;

/// Identifier of a label (a query/topic/hashtag the user subscribed to).
///
/// Labels are dense small integers `0..num_labels`; the paper's `L` is the
/// set of all labels of an [`crate::Instance`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LabelId(pub u16);

impl LabelId {
    /// The label id as a `usize`, for indexing per-label tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// External identifier of a post (e.g. a tweet id). Preserved through
/// sorting so results can be mapped back to the source data.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PostId(pub u64);

impl fmt::Display for PostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Label sets up to this size live inside the [`Post`]; larger ones spill
/// to the heap. Eleven is what fits in the three words a `Vec` would take,
/// so a post is no bigger than when it owned one, and a slice of posts
/// matching a handful of queries costs no allocation per post.
const INLINE_LABELS: usize = 11;

/// A sorted, de-duplicated label set, stored inline when small.
#[derive(Clone)]
enum Labels {
    Inline {
        len: u8,
        ids: [LabelId; INLINE_LABELS],
    },
    Spilled(Box<[LabelId]>),
}

impl Labels {
    fn from_sorted(sorted: &[LabelId]) -> Self {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        if sorted.len() > INLINE_LABELS {
            return Labels::Spilled(sorted.into());
        }
        let mut ids = [LabelId(0); INLINE_LABELS];
        ids[..sorted.len()].copy_from_slice(sorted);
        Labels::Inline {
            len: sorted.len() as u8,
            ids,
        }
    }

    #[inline]
    fn as_slice(&self) -> &[LabelId] {
        match self {
            Labels::Inline { len, ids } => &ids[..*len as usize],
            Labels::Spilled(ids) => ids,
        }
    }
}

/// Both representations compare and print as the label list they hold.
impl PartialEq for Labels {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Labels {}

impl fmt::Debug for Labels {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_slice().fmt(f)
    }
}

/// A microblogging post projected onto the inputs MQDP cares about:
/// `P_i = (F(P_i), label(P_i))`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Post {
    id: PostId,
    value: i64,
    labels: Labels,
}

impl Post {
    /// Creates a post with the given external id, diversity-dimension value
    /// and label set. Labels are sorted and de-duplicated.
    pub fn new(id: PostId, value: i64, mut labels: Vec<LabelId>) -> Self {
        labels.sort_unstable();
        labels.dedup();
        Self::from_sorted_labels(id, value, &labels)
    }

    /// [`Post::new`] for a label set that is already strictly ascending
    /// (sorted, no duplicates), which the caller guarantees: nothing is
    /// sorted, and nothing is allocated for a small set.
    pub fn from_sorted_labels(id: PostId, value: i64, labels: &[LabelId]) -> Self {
        Post {
            id,
            value,
            labels: Labels::from_sorted(labels),
        }
    }

    /// The external identifier.
    #[inline]
    pub fn id(&self) -> PostId {
        self.id
    }

    /// The value of the post on the diversity dimension (`F(P_i)`); for the
    /// time dimension this is the timestamp in milliseconds.
    #[inline]
    pub fn value(&self) -> i64 {
        self.value
    }

    /// The sorted, de-duplicated label set `label(P_i)`.
    #[inline]
    pub fn labels(&self) -> &[LabelId] {
        self.labels.as_slice()
    }

    /// Whether the post matches label `a`.
    #[inline]
    pub fn has_label(&self, a: LabelId) -> bool {
        self.labels().binary_search(&a).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_sorted_and_deduped() {
        let p = Post::new(
            PostId(7),
            100,
            vec![LabelId(3), LabelId(1), LabelId(3), LabelId(0)],
        );
        assert_eq!(p.labels(), &[LabelId(0), LabelId(1), LabelId(3)]);
        assert_eq!(p.id(), PostId(7));
        assert_eq!(p.value(), 100);
    }

    #[test]
    fn has_label_uses_membership() {
        let p = Post::new(PostId(1), 0, vec![LabelId(2), LabelId(5)]);
        assert!(p.has_label(LabelId(2)));
        assert!(p.has_label(LabelId(5)));
        assert!(!p.has_label(LabelId(3)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(LabelId(4).to_string(), "L4");
        assert_eq!(PostId(9).to_string(), "P9");
    }
}
