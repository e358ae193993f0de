//! `ShardedSimnetDriver`, the name `sim-fused` in the benchmark
//! harness still builds its driver by. [`SimnetDriver::from_net`] runs
//! every layout; this adds nothing to it. The tests below pin the
//! shim's behaviour that `sim-fused` relies on.

use crate::error::DmfsgdError;
use crate::runner::{Msg, SimnetDriver};
use crate::session::Session;
use dmf_simnet::ShardedSimNet;
use std::ops::{Deref, DerefMut};

/// A [`SimnetDriver`] over a [`ShardedSimNet`], under its former name.
#[doc(hidden)]
pub struct ShardedSimnetDriver(SimnetDriver);

impl ShardedSimnetDriver {
    /// [`SimnetDriver::from_net`].
    pub fn new(session: &Session, net: ShardedSimNet<Msg>) -> Result<Self, DmfsgdError> {
        SimnetDriver::from_net(session, net).map(Self)
    }
}

impl Deref for ShardedSimnetDriver {
    type Target = SimnetDriver;

    fn deref(&self) -> &SimnetDriver {
        &self.0
    }
}

impl DerefMut for ShardedSimnetDriver {
    fn deref_mut(&mut self) -> &mut SimnetDriver {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ConfigError;
    use dmf_simnet::NetConfig;

    fn quiet(seed: u64) -> NetConfig {
        NetConfig {
            delay_jitter_sigma: 0.0,
            seed,
            ..NetConfig::default()
        }
    }

    #[test]
    fn non_finite_deadline_is_rejected_not_spun_on() {
        let mut s = Session::builder()
            .nodes(16)
            .seed(2)
            .tau(60.0)
            .build()
            .unwrap();
        let net = ShardedSimNet::uniform(16, 4, 0.02, quiet(0));
        let mut driver = ShardedSimnetDriver::new(&s, net).unwrap();
        for deadline in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                driver.run_until(&mut s, deadline).unwrap_err(),
                DmfsgdError::Config(ConfigError::Duration { .. })
            ));
        }
        // Nothing was seeded or delivered by the rejected calls.
        assert_eq!((driver.net().pending(), driver.stats().probes_sent), (0, 0));
        assert!(driver.run_until(&mut s, 3.0).unwrap() > 0);
    }

    #[test]
    fn memory_accounting_is_linear_in_population() {
        // A function-backed net stores no per-pair state, so its delay
        // memory is zero at any population and island count — the
        // `sim-fused` layout (100 k nodes in 391 islands) included.
        for (n, islands) in [(1000, 10), (2000, 20), (2000, 1), (100_000, 391)] {
            let net: ShardedSimNet<Msg> = ShardedSimNet::uniform(n, islands, 0.02, quiet(0));
            assert_eq!(net.table_bytes(), 0, "n={n}, islands={islands}");
        }
    }
}
