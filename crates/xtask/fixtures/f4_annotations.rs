//! Fixture: `xtask-unit` annotations F4 has to drop. Not compiled; the
//! units self-tests load this file as crate `core` and assert that each
//! one is reported, and that it fails `cargo xtask check --strict`.

/// DROPPED: `GBB` is no unit.
/// xtask-unit: GBB
pub const SIZE: f64 = 1.0;

/// First declaration of `total` wins.
pub struct Usage {
    /// xtask-unit: GB
    pub total: f64,
}

/// DROPPED: conflicts with `Usage::total`.
pub struct Bill {
    /// xtask-unit: $
    pub total: f64,
}

/// DROPPED: the bare form does not attach across `fn`.
/// xtask-unit: GB
pub fn unattached() {}

/// DROPPED: the named form needs a function below it.
/// xtask-unit(return): $
pub const NOT_A_FN: f64 = 0.0;
