//! R6 fixture: a guard held across a call into the shared HTTP client.
//! A slow peer would turn every thread wanting the leader lock into a
//! network waiter. The fixed variant clones the address under the lock
//! and makes the request unlocked; it must stay silent.

use dial_serve::transport;
use std::sync::Mutex;

pub struct Front {
    pub leader: Mutex<String>,
}

/// Violation: `leader` is the live guard during the request.
pub fn probe(front: &Front) -> Option<u16> {
    let leader = front.leader.lock().unwrap();
    transport::get(&leader, "/v1/cluster").ok().map(|r| r.status)
}

/// Fixed: the guard is a temporary that ends with the clone.
pub fn probe_fixed(front: &Front) -> Option<u16> {
    let leader = front.leader.lock().unwrap().clone();
    transport::get(&leader, "/v1/cluster").ok().map(|r| r.status)
}
