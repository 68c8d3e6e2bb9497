//! Static registry of stage, event, digest, and note names.
//!
//! Registration is idempotent by name and happens once per call site (the
//! macros cache the returned id in a `OnceLock`), so it is a cold-path
//! concern: the warm path only ever touches preallocated per-thread slots
//! indexed by these ids. Capacities are fixed ([`MAX_STAGES`],
//! [`MAX_EVENTS`], [`MAX_DIGESTS`], `MAX_NOTES`); registrations past the cap
//! return the `NONE` sentinel and are silently dropped rather than panicking
//! inside an instrumented library.

use std::sync::Mutex;

/// Maximum number of distinct stage names.
pub const MAX_STAGES: usize = 32;
/// Maximum number of distinct event names.
pub const MAX_EVENTS: usize = 32;
/// Maximum number of distinct percentile digests.
pub const MAX_DIGESTS: usize = 8;
/// Maximum number of distinct flight-recorder note names.
const MAX_NOTES: usize = 16;

/// Identifies a registered pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageId(pub(crate) u16);

/// Identifies a registered event kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(pub(crate) u16);

/// Identifies a registered percentile digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DigestId(pub(crate) u16);

/// Identifies a registered flight-recorder note name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NoteId(pub(crate) u16);

impl StageId {
    /// Sentinel for "not registered" (no-op builds, capacity overflow).
    pub const NONE: StageId = StageId(u16::MAX);
}

impl EventId {
    /// Sentinel for "not registered".
    pub const NONE: EventId = EventId(u16::MAX);
}

impl DigestId {
    /// Sentinel for "not registered".
    pub const NONE: DigestId = DigestId(u16::MAX);
}

impl NoteId {
    /// Sentinel for "not registered".
    pub const NONE: NoteId = NoteId(u16::MAX);
}

#[derive(Default)]
struct Registry {
    stages: Vec<&'static str>,
    events: Vec<&'static str>,
    digests: Vec<&'static str>,
    notes: Vec<&'static str>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    stages: Vec::new(),
    events: Vec::new(),
    digests: Vec::new(),
    notes: Vec::new(),
});

fn intern(list: &mut Vec<&'static str>, cap: usize, name: &'static str) -> Option<u16> {
    if let Some(i) = list.iter().position(|n| *n == name) {
        return Some(i as u16);
    }
    if list.len() >= cap {
        return None;
    }
    list.push(name);
    Some((list.len() - 1) as u16)
}

/// Registers (or looks up) a stage name, returning its id.
pub fn register_stage(name: &'static str) -> StageId {
    let mut reg = REGISTRY.lock().expect("obs registry poisoned");
    intern(&mut reg.stages, MAX_STAGES, name).map_or(StageId::NONE, StageId)
}

/// Registers (or looks up) an event name, returning its id.
pub fn register_event(name: &'static str) -> EventId {
    let mut reg = REGISTRY.lock().expect("obs registry poisoned");
    intern(&mut reg.events, MAX_EVENTS, name).map_or(EventId::NONE, EventId)
}

/// Registers (or looks up) a percentile digest name, returning its id.
pub fn register_digest(name: &'static str) -> DigestId {
    let mut reg = REGISTRY.lock().expect("obs registry poisoned");
    intern(&mut reg.digests, MAX_DIGESTS, name).map_or(DigestId::NONE, DigestId)
}

/// Registers (or looks up) a flight-recorder note name, returning its id.
pub fn register_note(name: &'static str) -> NoteId {
    let mut reg = REGISTRY.lock().expect("obs registry poisoned");
    intern(&mut reg.notes, MAX_NOTES, name).map_or(NoteId::NONE, NoteId)
}

/// Names of all registered stages, indexed by [`StageId`].
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) fn stage_names() -> Vec<&'static str> {
    REGISTRY.lock().expect("obs registry poisoned").stages.clone()
}

/// Names of all registered events, indexed by [`EventId`].
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) fn event_names() -> Vec<&'static str> {
    REGISTRY.lock().expect("obs registry poisoned").events.clone()
}

/// Names of all registered percentile digests, indexed by [`DigestId`].
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) fn digest_names() -> Vec<&'static str> {
    REGISTRY.lock().expect("obs registry poisoned").digests.clone()
}

/// Names of all registered flight-recorder notes, indexed by [`NoteId`].
#[cfg_attr(not(feature = "obs"), allow(dead_code))]
pub(crate) fn note_names() -> Vec<&'static str> {
    REGISTRY.lock().expect("obs registry poisoned").notes.clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let a = register_stage("reg_test_stage");
        let b = register_stage("reg_test_stage");
        assert_eq!(a, b);
        assert_ne!(a, StageId::NONE);
        let e1 = register_event("reg_test_event");
        let e2 = register_event("reg_test_event");
        assert_eq!(e1, e2);
        let d1 = register_digest("reg_test_digest");
        let d2 = register_digest("reg_test_digest");
        assert_eq!(d1, d2);
    }
}
