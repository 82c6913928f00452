//! The error a public door returns for a parameter outside its range.

use std::fmt;

/// A parameter outside the range its door takes: which one, the value it
/// held and the range it must lie in. A door checks its parameters with a
/// `validate` beside it and panics with the error's message; a caller
/// holding outside input calls `validate` first and reports the error under
/// its own name for the parameter (a command-line flag).
#[derive(Clone, Debug, PartialEq)]
pub struct RangeError {
    /// The parameter as the door names it (`nodes`, `branching`, …).
    pub param: &'static str,
    /// The value it held, printed.
    pub value: String,
    /// The range, in words (`at least 4`).
    pub expected: &'static str,
}

impl RangeError {
    /// `Ok` when `in_range`, else the error for `param = value`.
    pub fn check(
        in_range: bool,
        param: &'static str,
        value: impl fmt::Display,
        expected: &'static str,
    ) -> Result<(), RangeError> {
        let error = || RangeError { param, value: value.to_string(), expected };
        in_range.then_some(()).ok_or_else(error)
    }
}

impl fmt::Display for RangeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} = {}, expected {}", self.param, self.value, self.expected)
    }
}

impl std::error::Error for RangeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_error_names_the_parameter_its_value_and_the_range() {
        assert_eq!(RangeError::check(true, "nodes", 3, "at least 4"), Ok(()));
        let e = RangeError::check(false, "nodes", 3, "at least 4").unwrap_err();
        assert_eq!((e.param, e.value.as_str()), ("nodes", "3"));
        assert_eq!(e.to_string(), "nodes = 3, expected at least 4");
        let nan = RangeError::check(false, "cv", f64::NAN, "a finite value >= 0").unwrap_err();
        assert_eq!(nan.to_string(), "cv = NaN, expected a finite value >= 0");
    }
}
