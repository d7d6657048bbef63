//! Empty library: this crate exists to host the repository-level integration
//! tests and examples (see `Cargo.toml` for the target map).

#![forbid(unsafe_code)]

/// The README's Rust snippets, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
