//! Fixture: `escape-hatch-justification` violations. Not compiled; scanned
//! by self-tests. Escape hatches are loans — every one must say why.

/// VIOLATION: bare legacy escape, no justification.
pub fn bare_legacy(x: Option<u8>) -> u8 {
    x.unwrap_or(0) // xtask-allow: money-safety
}

/// VIOLATION: bare `all` escape must not grant itself amnesty.
pub fn bare_all() {
    let _ = 1; // xtask-allow: all
}

/// Allowed: new grammar with a reason.
pub fn justified_new(x: Option<u8>) -> u8 {
    x.unwrap_or(0) // xtask-allow(money-safety): no dollar value in sight
}

/// Allowed: legacy grammar with trailing commentary as the reason.
pub fn justified_legacy(x: u64) -> u32 {
    let _ = x; // xtask-allow: money-safety (no dollar value is computed here)
    0
}
