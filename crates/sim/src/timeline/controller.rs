//! Which scheme drives the deployment cycle, and in which mode: placed
//! once, re-placed every minute, or re-placed and re-installed only where
//! it pays.

use std::sync::Arc;

use lowlat_core::schemes::registry::{self, UnknownScheme};
use lowlat_core::schemes::RoutingScheme;

/// Why a controller spec failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ControllerParseError {
    /// A mode prefix (`static:`, `bounded:`) with nothing after it.
    EmptySpec {
        /// The offending prefix.
        prefix: &'static str,
    },
    /// The scheme name is not in the registry.
    Unknown(UnknownScheme),
}

impl std::fmt::Display for ControllerParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerParseError::EmptySpec { prefix } => {
                write!(f, "controller spec `{prefix}` needs a scheme name after the prefix")
            }
            ControllerParseError::Unknown(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ControllerParseError {}

impl From<UnknownScheme> for ControllerParseError {
    fn from(e: UnknownScheme) -> Self {
        ControllerParseError::Unknown(e)
    }
}

/// Which controller drives path computation each minute: any registry
/// scheme, run in one of three modes.
#[derive(Clone)]
pub struct Controller {
    pub(super) scheme: Arc<dyn RoutingScheme>,
    pub(super) mode: Mode,
}

/// How a [`Controller`] runs its scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Mode {
    /// Placed once — the paper's OSPF baseline, generalized (`static:`).
    Static,
    /// Re-placed every minute on the history so far.
    Adaptive,
    /// Re-placed every minute, re-installed only where it pays (`bounded:`;
    /// `bounded` module docs).
    Bounded,
}

/// The mode prefixes [`Controller::parse`] knows; a spec with none of them
/// is adaptive.
const MODE_PREFIXES: [(&str, Mode); 2] = [("static:", Mode::Static), ("bounded:", Mode::Bounded)];

impl Controller {
    /// Parses a sweep spec: a registry name, run adaptively (re-placed
    /// every minute on the measured history; LDR uses its full trace-driven
    /// Figure-14 loop, other schemes re-place Algorithm-1 predictions),
    /// optionally prefixed with `static:` for the variant placed once on
    /// the base matrix or `bounded:` for the churn-bounded variant, which
    /// only re-installs aggregates whose fresh solution pays for its churn
    /// (`"LDR"`, `"static: SP"`, `"bounded:LDR"`). Whitespace around the
    /// name and after the prefix is ignored; a prefix with nothing after it
    /// is rejected with [`ControllerParseError::EmptySpec`] rather than a
    /// confusing unknown-scheme error for `""`.
    pub fn parse(spec: &str) -> Result<Controller, ControllerParseError> {
        let spec = spec.trim();
        let (name, mode) = match MODE_PREFIXES
            .iter()
            .find_map(|&(prefix, mode)| Some((prefix, spec.strip_prefix(prefix)?.trim(), mode)))
        {
            Some((prefix, "", _)) => return Err(ControllerParseError::EmptySpec { prefix }),
            Some((_, name, mode)) => (name, mode),
            None => (spec, Mode::Adaptive),
        };
        Ok(Controller { scheme: registry::build(name)?, mode })
    }

    /// The paper's full LDR deployment cycle.
    ///
    /// # Panics
    /// Never — `LDR` is a registry spec.
    pub fn ldr() -> Controller {
        Controller::parse("LDR").expect("LDR is a registry spec")
    }

    /// Static shortest paths computed once (the OSPF baseline).
    ///
    /// # Panics
    /// Never — `SP` is a registry spec.
    pub fn static_sp() -> Controller {
        Controller::parse("static:SP").expect("SP is a registry spec")
    }

    /// Display name: the scheme's registry name, `static:`-prefixed for
    /// placed-once controllers and `bounded:`-prefixed for churn-bounded
    /// ones. Round-trips through [`Controller::parse`].
    pub fn name(&self) -> String {
        match self.mode {
            Mode::Static => format!("static:{}", self.scheme.name()),
            Mode::Adaptive => self.scheme.name(),
            Mode::Bounded => format!("bounded:{}", self.scheme.name()),
        }
    }

    /// True when the scheme is placed once and never consulted again.
    pub(super) fn is_static(&self) -> bool {
        self.mode == Mode::Static
    }
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller").field("name", &self.name()).finish()
    }
}
