//! Streaming keyword matcher — the "posts/label matching" module of the
//! paper's Figure 1 system architecture. The static option's inverted
//! index (the paper used Apache Lucene) is [`crate::RtIndex`].

use std::collections::HashMap;

use crate::tokenize::tokenize;

/// Streaming matcher: maps each incoming post to the set of queries (label
/// ids) whose keyword lists it hits. This is the "matching module working
/// directly on the stream" of Figure 1.
#[derive(Debug)]
pub struct KeywordMatcher {
    keyword_to_labels: HashMap<String, Vec<u16>>,
    num_labels: usize,
}

impl KeywordMatcher {
    /// Builds a matcher from one keyword list per query; query `i` becomes
    /// label id `i`.
    pub fn new(queries: &[Vec<String>]) -> Self {
        let mut keyword_to_labels: HashMap<String, Vec<u16>> = HashMap::new();
        for (label, kws) in queries.iter().enumerate() {
            for kw in kws {
                let entry = keyword_to_labels.entry(kw.to_lowercase()).or_default();
                if entry.last() != Some(&(label as u16)) {
                    entry.push(label as u16);
                }
            }
        }
        KeywordMatcher {
            keyword_to_labels,
            num_labels: queries.len(),
        }
    }

    /// Number of queries.
    pub fn num_labels(&self) -> usize {
        self.num_labels
    }

    /// Label ids whose queries match `text` (sorted, de-duplicated; empty if
    /// the post is irrelevant to every query).
    pub fn match_labels(&self, text: &str) -> Vec<u16> {
        let mut labels: Vec<u16> = tokenize(text)
            .iter()
            .filter_map(|t| self.keyword_to_labels.get(t))
            .flat_map(|ls| ls.iter().copied())
            .collect();
        labels.sort_unstable();
        labels.dedup();
        labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn matcher_maps_posts_to_labels() {
        let m = KeywordMatcher::new(&[
            q(&["obama", "president"]),
            q(&["economy", "budget"]),
            q(&["golf"]),
        ]);
        assert_eq!(m.num_labels(), 3);
        assert_eq!(m.match_labels("Obama on the economy"), vec![0, 1]);
        assert_eq!(m.match_labels("nothing relevant here"), Vec::<u16>::new());
        assert_eq!(m.match_labels("GOLF golf"), vec![2]);
    }

    #[test]
    fn matcher_keywords_shared_between_queries() {
        let m = KeywordMatcher::new(&[q(&["market"]), q(&["market", "stocks"])]);
        assert_eq!(m.match_labels("the market rallies"), vec![0, 1]);
    }

    #[test]
    fn empty_matcher() {
        let m = KeywordMatcher::new(&[]);
        assert!(m.match_labels("anything").is_empty());
    }
}
