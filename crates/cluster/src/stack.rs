//! The one way to assemble a simulated device stack.
//!
//! Every device in the workspace — a cluster shard, a bench testbed, an
//! integration suite, an example — is the same fixed stack the paper
//! describes: I/O ledger → NAND array → (optional fault injector) → ZNS
//! namespace → virtual clock → `KvCsdDevice`. [`StackBuilder`] wires it;
//! [`DeviceStack`] owns the pieces and provides the one power-cycle step
//! crash harnesses need.
//!
//! Faults are armed at a single point, before the device is built. That
//! is indistinguishable from arming after construction because
//! `KvCsdDevice::new` issues no flash operation (the zone manager and the
//! metadata store only build in-memory state), so the first op the
//! injector counts is always the first one a client causes.

use std::sync::Arc;

use kvcsd_core::{DeviceConfig, KvCsdDevice};
use kvcsd_flash::{FlashGeometry, NandArray, ZnsConfig, ZonedNamespace};
use kvcsd_proto::DeviceHandler;
use kvcsd_sim::config::SimConfig;
use kvcsd_sim::{CostModel, FaultInjector, FaultPlan, IoLedger, VirtualClock};

/// Parameters of one device stack; [`StackBuilder::build`] assembles it.
#[derive(Debug, Clone)]
pub struct StackBuilder {
    geometry: FlashGeometry,
    zns: ZnsConfig,
    device: DeviceConfig,
    sim: SimConfig,
    ledger: Option<Arc<IoLedger>>,
    faults: Option<FaultPlan>,
}

impl StackBuilder {
    /// A stack over `geometry` with default ZNS, device and hardware
    /// settings, its own ledger, and no fault injector.
    pub fn new(geometry: FlashGeometry) -> Self {
        Self {
            geometry,
            zns: ZnsConfig::default(),
            device: DeviceConfig::default(),
            sim: SimConfig::default(),
            ledger: None,
            faults: None,
        }
    }

    pub fn zns(mut self, zns: ZnsConfig) -> Self {
        self.zns = zns;
        self
    }

    /// Device configuration. A `clock` set here becomes the stack's
    /// clock; otherwise the stack creates one and installs it.
    pub fn device(mut self, device: DeviceConfig) -> Self {
        self.device = device;
        self
    }

    /// Hardware constants (NAND timing) and the SoC cost model.
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Charge flash and SoC work to `ledger` instead of a fresh one (a
    /// testbed accounts one run across several devices this way).
    pub fn ledger(mut self, ledger: Arc<IoLedger>) -> Self {
        self.ledger = Some(ledger);
        self
    }

    /// Attach a fault injector executing `plan` to the NAND array.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    pub fn build(self) -> DeviceStack {
        let ledger = self.ledger.unwrap_or_else(|| {
            Arc::new(IoLedger::new(
                self.geometry.channels,
                self.geometry.page_bytes,
            ))
        });
        let nand = Arc::new(NandArray::new(
            self.geometry,
            &self.sim.hw,
            Arc::clone(&ledger),
        ));
        let injector = self.faults.map(|plan| Arc::new(FaultInjector::new(plan)));
        nand.set_fault_injector(injector.clone());
        let zns = Arc::new(ZonedNamespace::new(nand, self.zns));
        let mut cfg = self.device;
        let clock = cfg
            .clock
            .get_or_insert_with(|| Arc::new(VirtualClock::new()))
            .clone();
        let cost = self.sim.cost;
        let device = Arc::new(KvCsdDevice::new(
            Arc::clone(&zns),
            cost.clone(),
            cfg.clone(),
        ));
        DeviceStack {
            device,
            ledger,
            zns,
            clock,
            injector,
            cost,
            cfg,
        }
    }
}

/// A built device stack: the device plus the flash, ledger, clock and
/// injector under it.
pub struct DeviceStack {
    device: Arc<KvCsdDevice>,
    ledger: Arc<IoLedger>,
    zns: Arc<ZonedNamespace>,
    clock: Arc<VirtualClock>,
    injector: Option<Arc<FaultInjector>>,
    cost: CostModel,
    cfg: DeviceConfig,
}

impl DeviceStack {
    pub fn device(&self) -> &Arc<KvCsdDevice> {
        &self.device
    }

    /// The device as a command handler, ready for a client to connect.
    pub fn handler(&self) -> Arc<dyn DeviceHandler> {
        Arc::clone(&self.device) as Arc<dyn DeviceHandler>
    }

    pub fn ledger(&self) -> &Arc<IoLedger> {
        &self.ledger
    }

    /// The virtual clock the device checks deadlines against. It survives
    /// [`DeviceStack::power_cycle`]: a power cut does not rewind time.
    pub fn clock(&self) -> &Arc<VirtualClock> {
        &self.clock
    }

    /// The fault injector, when the stack was built with a plan.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Whether an injected power cut has taken the device down.
    pub fn is_powered_off(&self) -> bool {
        self.injector.as_ref().is_some_and(|i| i.is_powered_off())
    }

    /// (Re-)attach the injector to the NAND array; no-op without a plan.
    pub fn arm(&self) {
        self.zns.nand().set_fault_injector(self.injector.clone());
    }

    /// Detach the injector: flash ops run fault-free until [`arm`].
    ///
    /// [`arm`]: DeviceStack::arm
    pub fn disarm(&self) {
        self.zns.nand().set_fault_injector(None);
    }

    /// Power-cycle the device: disarm the injector, restore power, and
    /// reopen the device from flash with the same cost model and
    /// configuration. Recovery runs fault-free; call [`arm`] to inject
    /// again. Jobs recovery re-enqueued are left pending.
    ///
    /// [`arm`]: DeviceStack::arm
    pub fn power_cycle(&mut self) -> kvcsd_core::Result<&Arc<KvCsdDevice>> {
        self.disarm();
        if let Some(inj) = &self.injector {
            inj.power_restore();
        }
        let device =
            KvCsdDevice::reopen(Arc::clone(&self.zns), self.cost.clone(), self.cfg.clone())?;
        self.device = Arc::new(device);
        Ok(&self.device)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcsd_client::{ClientError, KvCsd};
    use kvcsd_proto::KvStatus;
    use kvcsd_sim::fault::FaultKind;

    fn small() -> StackBuilder {
        StackBuilder::new(FlashGeometry {
            channels: 4,
            blocks_per_channel: 64,
            pages_per_block: 16,
            page_bytes: 4096,
        })
    }

    #[test]
    fn construction_issues_no_flash_op_so_the_first_client_op_is_cut() {
        let mut stack = small().faults(FaultPlan::power_cut_at(1, 7)).build();
        let inj = Arc::clone(stack.injector().unwrap());
        assert_eq!(inj.ops(), 0, "building the device must not touch flash");
        assert!(!stack.is_powered_off());

        // Creating a keyspace persists the keyspace table: flash op #1.
        let client = KvCsd::connect(stack.handler(), Arc::clone(stack.ledger()));
        let err = client.create_keyspace("first").unwrap_err();
        assert_eq!(err, ClientError::Device(KvStatus::PowerLoss));
        let events = inj.events();
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].op, events[0].kind), (1, FaultKind::PowerCut));
        assert!(stack.is_powered_off());

        // The power-cycle step reopens fault-free and the device serves.
        stack.power_cycle().unwrap();
        assert!(!stack.is_powered_off());
        let client = KvCsd::connect(stack.handler(), Arc::clone(stack.ledger()));
        client.create_keyspace("second").unwrap();
    }

    #[test]
    fn no_plan_attaches_no_injector() {
        let stack = small().build();
        let nand = stack.device().zone_manager().zns().nand();
        assert!(stack.injector().is_none());
        assert!(nand.fault_injector().is_none());
        stack.arm();
        assert!(nand.fault_injector().is_none());
    }

    #[test]
    fn the_clock_and_ledger_survive_a_power_cycle() {
        let ledger = Arc::new(IoLedger::new(4, 4096));
        let mut stack = small().ledger(Arc::clone(&ledger)).build();
        assert!(Arc::ptr_eq(stack.ledger(), &ledger));
        stack.clock().advance(5_000);
        stack.power_cycle().unwrap();
        assert!(Arc::ptr_eq(stack.device().clock(), stack.clock()));
        assert_eq!(stack.device().clock().now_ns(), 5_000);
    }
}
