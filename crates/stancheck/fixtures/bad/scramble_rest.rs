// stancheck-fixture: crate=core kind=lib
//! Known-bad: a scrambler whose destructure ends in a `..` rest, so a field added to
//! the type later would compile without anyone deciding how a fault corrupts it. The
//! exhaustive scrambler below it is the accepted form.

pub struct Counter {
    id: u32,
    value: u64,
    limit: u64,
}

impl Counter {
    pub fn scramble(&mut self, draw: u64) {
        let Counter { value, .. } = self;
        *value = draw;
    }
}

pub struct Gauge {
    id: u32,
    level: u64,
}

impl Gauge {
    pub fn scramble(&mut self, draw: u64) {
        let Gauge {
            // Identity, not memory.
            id: _,
            level,
        } = self;
        *level = draw;
    }
}
