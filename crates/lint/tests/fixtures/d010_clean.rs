//! Dataflow fixture: the RNG draw stays in machine-local state; the
//! shared data-plane write carries no per-machine randomness.
pub struct Net {
    rng: Rng,
    plane: Vec<u64>,
}

impl Net {
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }
    pub fn plane_mut(&mut self) -> &mut Vec<u64> {
        &mut self.plane
    }
}

pub struct Rng(u64);

impl Rng {
    pub fn gen_range(&mut self, r: std::ops::Range<u64>) -> u64 {
        self.0 = self.0.wrapping_add(1);
        r.start
    }
}

pub fn on_event(net: &mut Net, backlog: &mut Vec<u64>) {
    let jitter = net.rng().gen_range(0..9);
    backlog.push(jitter);
    let epoch = 3;
    net.plane_mut().push(epoch);
}
