//! Text substrate for the MQDP pipeline (Figure 1 of the paper): tokenizer,
//! streaming keyword matcher, time-partitioned real-time inverted index,
//! SimHash near-duplicate elimination, and lexicon-based sentiment scoring (the
//! alternative diversity dimension of Sections 2 and 6).

#![warn(missing_docs)]

pub mod index;
pub mod rt_index;
pub mod sentiment;
pub mod simhash;
pub mod tokenize;

pub use index::KeywordMatcher;
pub use rt_index::RtIndex;
pub use sentiment::SentimentScorer;
pub use simhash::{hamming, simhash, NearDuplicateFilter};
pub use tokenize::{is_stopword, tokenize, STOPWORDS};
