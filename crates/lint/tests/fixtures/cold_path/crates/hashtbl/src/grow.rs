//! Fixture: the documented `grow` cold path lost its `#[cold]`.

#[inline]
pub fn grow() {}
