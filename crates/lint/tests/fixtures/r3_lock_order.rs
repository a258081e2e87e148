// R3 fixture (classified as storage source), in the shape of
// `storage::lru`: blocking on a flight while a shard guard is live, and
// taking a shard lock inside a flight's done section, must both fire.
pub fn wait_under_shard_lock(shard: &Mutex<Shard>, theirs: &Flight) {
    let s = shard.lock();
    let joined = s.flight(hash, key);
    while !theirs.wait_done(WAIT_POLL) {} // line 7: wait while `s` live
    drop(s);
}

pub fn shard_inside_flight(shard: &Mutex<Shard>, flight: &Flight) {
    let done = flight.done.lock();
    let s = shard.lock(); // line 13: shard after flight
    drop(s);
    drop(done);
}

pub fn dropped_first(shard: &Mutex<Shard>, theirs: &Flight, lead: &Lead) {
    let mut s = shard.lock();
    lead.flight.finish(); // fine: finish under the shard lock is the sanctioned order
    drop(s);
    while !theirs.wait_done(WAIT_POLL) {} // fine: shard guard dropped first
}
