// Fixture: suppression semantics. A reasoned lint:allow silences its
// line (or the line below); a bare one is itself a finding; an unknown
// rule id is itself a finding. Linted under the virtual path
// crates/mqd-server/src/server.rs.
pub fn reasoned(slot: Option<Conn>) -> Conn {
    // lint:allow(panic-path): the acceptor fills the slot before it wakes this worker
    slot.unwrap()
}

pub fn same_line(buffer: &[u32]) -> u32 {
    buffer[0] // lint:allow(panic-path): caller guarantees non-empty buffer
}

pub fn bare(slot: Option<Conn>) -> Conn {
    // lint:allow(panic-path)
    slot.unwrap()
}

pub fn unknown_rule(slot: Option<Conn>) -> Conn {
    // lint:allow(no-such-rule): confidently wrong
    slot.unwrap()
}
