//! A minimal view over "a simulator with a Vidi shim installed", so the
//! checkpoint runner and segmented verifier work with both the catalog
//! harness (`vidi_apps::BuiltApp`) and the §5.3 echo/ATOP case study
//! (`vidi_apps::EchoAtopBuilt`).
//!
//! Since the session drive loops were unified, this is the same trait the
//! rest of the stack drives through: [`vidi_core::DriveSession`], re-exported
//! under the historical name. The `BuiltApp`/`EchoAtopBuilt` impls live next
//! to those types in `vidi-apps`.
//!
//! Sessions are built fresh per thread by a verification factory — the
//! simulator graph holds `Rc` handles and never crosses threads; only the
//! factory closure, checkpoint byte blobs, and traces do.

pub use vidi_core::DriveSession as SnapSession;
