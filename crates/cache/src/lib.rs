//! **ecmas-cache** — a content-addressed compile cache for the Ecmas
//! service layer.
//!
//! Production traffic to a compile service is highly repetitive: the same
//! circuits arrive again and again, and every job otherwise pays the full
//! profile → map → schedule pipeline from scratch. This crate makes
//! repeated work cheap at two granularities:
//!
//! 1. **Full results** ([`full_key`]): a finished `CompileOutcome` keyed
//!    by a platform-stable 128-bit hash of (circuit, chip). A hit skips
//!    compilation entirely.
//! 2. **In-flight coalescing** ([`CompileCache::begin`]): N identical
//!    concurrent jobs trigger one compile; the other N−1 park on the
//!    leader's flight and share its result (or its error).
//!
//! A miss runs the whole pipeline and stores one entry, its full result.
//! Storage is a byte-budgeted LRU whose estimated resident total never
//! exceeds [`CacheConfig::byte_budget`]; every counter
//! (hits/misses/evictions/resident bytes/coalesced waits) is exact and
//! surfaces through [`CacheStats`] and the `CacheInfo` stamped onto every
//! report.
//!
//! Hashing is FNV-1a over explicit byte streams (`ecmas_core::stable`) —
//! no `DefaultHasher`, so keys agree across platforms, toolchains, and
//! daemon restarts.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use ecmas_cache::{full_key, Begin, CacheConfig, CompileCache};
//! use ecmas_chip::{Chip, CodeModel};
//! use ecmas_circuit::Circuit;
//! use ecmas_core::session::Compiler;
//! use ecmas_core::Ecmas;
//!
//! let mut circuit = Circuit::new(2);
//! circuit.cnot(0, 1);
//! let chip = Chip::min_viable(CodeModel::LatticeSurgery, 2, 3)?;
//!
//! let cache = CompileCache::new(CacheConfig::default());
//! let key = full_key(&circuit, &chip);
//! let outcome = match cache.begin(key) {
//!     Begin::Hit(shared) => shared,
//!     Begin::Lead(lead) => {
//!         let fresh = Ecmas::default().compile_outcome(&circuit, &chip)?;
//!         lead.complete(fresh)
//!     }
//!     Begin::Follow(follow) => unreachable!("nothing else is compiling"),
//! };
//! assert!(matches!(cache.begin(key), Begin::Hit(_)));
//! assert_eq!(cache.stats().hits, 1);
//! # drop(outcome);
//! # Ok::<(), ecmas_core::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod key;
mod lru;

pub use cache::{
    estimate_outcome_bytes, Begin, CacheConfig, CacheStats, CompileCache, FollowGuard,
    FollowStatus, LeadGuard,
};
pub use key::{full_key, CompileKey};
