//! `self.name()` calls: `Clock::new` reaches `Clock::tick`, never
//! `Controller::tick`, and, since `Clock` has no `flush`, every `flush`.

pub struct Clock(u64);

impl Clock {
    pub fn new() -> Self {
        let mut c = Clock(0);
        c.prime();
        c
    }

    fn prime(&mut self) {
        self.tick();
        self.flush();
    }

    fn tick(&mut self) {
        self.0 += 1;
    }
}

pub struct Controller;

impl Controller {
    /// Not constructor-reachable: must NOT be flagged.
    pub fn tick(&mut self, reg: &mut MetricRegistry) {
        reg.counter("controller_ticks");
    }
}

pub struct Journal;

impl Journal {
    /// Constructor-reachable through `self.flush()`: flagged.
    pub fn flush(&mut self, reg: &mut MetricRegistry) {
        reg.counter("journal_flushes");
    }
}
