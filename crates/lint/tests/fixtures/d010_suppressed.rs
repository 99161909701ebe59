//! Dataflow fixture: the RNG value's shared write carries a justified
//! pragma.
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

pub fn on_event(net: &mut Net) {
    let jitter = net.rng().gen_range(0..9);
    // doe-lint: allow(D010) — fixture: the plane slot is per-machine and
    // read back only by the machine that wrote it
    net.plane_mut().push(jitter);
}
