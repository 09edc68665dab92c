//@ path: crates/qsim/src/draws_fixture.rs
pub fn bad_thread_rng() -> f64 {
    let mut rng = thread_rng(); //~ shared-rng
    rng.gen()
}

pub fn bad_ambient_random() -> f64 {
    rand::random() //~ shared-rng
}

pub fn allowed() -> f64 {
    // lint:allow(shared-rng): fixture: demo path only, never a result.
    let mut rng = thread_rng();
    rng.gen()
}

pub fn counter_rng_is_fine(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(6364136223846793005).wrapping_add(index)
}

pub struct HeldGenerators {
    rng: Mutex<StdRng>, //~ shared-rng
    by_path: std::sync::RwLock<rand::rngs::StdRng>, //~ shared-rng
    local: RefCell<SmallRng>, //~ shared-rng
    nested: Arc<Mutex<Option<Box<dyn RngCore>>>>, //~ shared-rng
    // lint:allow(shared-rng): fixture: a held generator with a reason.
    excused: Mutex<StdRng>,
}

pub struct HeldNonGenerators {
    counts: Mutex<Vec<u64>>,
    seeds: RwLock<BTreeMap<u64, u64>>,
    hook: RefCell<Box<dyn Fn(u64) -> u64>>,
    plain_rng: StdRng,
}

#[cfg(test)]
mod tests {
    #[test]
    fn ambient_rng_in_tests_is_fine() {
        let _ = thread_rng();
        let _shared: Mutex<StdRng> = Mutex::new(StdRng::seed_from_u64(1));
    }
}
